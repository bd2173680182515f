// Wald's sequential probability ratio test over Bernoulli observations.
//
// The discrimination detector's only test: feed one observation per twin
// round and stop as soon as the accumulated log-likelihood ratio crosses a
// configured error bound. Wald's thresholds A = log((1-beta)/alpha) and
// B = log(beta/(1-alpha)) bound the false-accept rate of H1 by ~alpha and
// the false-accept rate of H0 by ~beta, at a far lower expected sample
// count than any fixed-size test with the same error rates.
//
// Deterministic and allocation-free: the state is one double and one
// counter, and the decision freezes at the first boundary crossing.
#pragma once

#include <cmath>
#include <cstdint>

namespace debuglet {

class Sprt {
 public:
  enum class Decision : std::int8_t {
    kAcceptH0 = -1,  // evidence says the null (p = p0) holds
    kContinue = 0,
    kAcceptH1 = 1,  // evidence says the alternative (p = p1) holds
  };

  /// Tests H0: P(success) = p0 against H1: P(success) = p1 (p1 > p0) with
  /// false-H1 rate <= ~alpha and false-H0 rate <= ~beta.
  Sprt(double p0, double p1, double alpha, double beta)
      : upper_(std::log((1.0 - beta) / alpha)),
        lower_(std::log(beta / (1.0 - alpha))),
        log_success_(std::log(p1 / p0)),
        log_failure_(std::log((1.0 - p1) / (1.0 - p0))) {}

  /// Feeds one observation. No-op once a boundary was crossed — the
  /// sequential test's stopping rule is part of its error guarantee.
  void observe(bool success) {
    if (decision() != Decision::kContinue) return;
    llr_ += success ? log_success_ : log_failure_;
    observations_ += 1;
  }

  Decision decision() const {
    if (llr_ >= upper_) return Decision::kAcceptH1;
    if (llr_ <= lower_) return Decision::kAcceptH0;
    return Decision::kContinue;
  }

  double llr() const { return llr_; }
  std::uint64_t observations() const { return observations_; }
  double upper_bound() const { return upper_; }
  double lower_bound() const { return lower_; }

 private:
  double upper_;
  double lower_;
  double log_success_;
  double log_failure_;
  double llr_ = 0.0;
  std::uint64_t observations_ = 0;
};

}  // namespace debuglet
