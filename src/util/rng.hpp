// Deterministic random-number generation.
//
// Every stochastic process in the simulator (link jitter, loss, congestion
// onsets, route churn) draws from an Rng seeded explicitly by the scenario.
// Runs with equal seeds are bit-identical, which the reproduction benches
// and property tests rely on.
#pragma once

#include <cstdint>
#include <vector>

namespace debuglet {

/// splitmix64: advances `state` by the golden-ratio increment and returns
/// the mixed value. Seeds Rng, derives wire-damage positions from a
/// damage seed, and (on a copy of its input) mixes event ids.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// splitmix64 seeded xoshiro256** generator with shaped-draw helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit draw.
  std::uint64_t next_u64();

  /// Uniform in [0, bound). Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller, scaled to (mean, stddev).
  double normal(double mean, double stddev);

  /// Exponential with the given mean (= 1/rate).
  double exponential(double mean);

  /// True with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Uniform index into a container of the given size. Precondition: size>0.
  std::size_t index(std::size_t size);

  /// Weighted index draw; weights need not be normalized.
  /// Precondition: at least one weight is positive.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Derives an independent child generator; children with distinct labels
  /// produce independent streams from the same parent seed.
  Rng fork(std::uint64_t label);

 private:
  std::uint64_t s_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace debuglet
