// Twin-probe discrimination detection (the counter-measurement to
// simnet/middlebox.hpp).
//
// A DPI middlebox that deprioritizes "data" while letting recognizable
// probes ride clean (§VI-E fault hiding) is invisible to plain
// measurements — the probes really do see a healthy path. The counter,
// following "Verifiable Network-Performance Measurements" (PAPERS.md), is
// to make the adversary's CLASSIFIER the measured variable: emit TWINS —
// packet pairs of identical size, payload entropy and pacing that differ
// only in the single feature the classifier keys on (here: whether the
// destination port looks like a measurement port) — and compare their
// treatment. Any systematic difference is discrimination by construction,
// and per-hop INT residence (src/telemetry) names the AS that injected it.
//
// Against an ADAPTIVE adversary (a middlebox that learns recurring twin
// signatures, simnet/middlebox.hpp) the detector randomizes: per-round
// source ports, fresh entropy-matched payloads and mimicry-profile pacing
// jitter keep every round's signature novel, so the learner never gets the
// recurrence it needs to promote. The detector runs Wald SPRTs
// (util/sprt.hpp) per arm — a sign test on per-round delay deltas and one
// on discordant loss pairs — stopping as soon as the evidence crosses the
// alpha/beta error bounds.
// When INT is off, twin pairs aimed at every intermediate path AS act as a
// prefix scan: the nearest prefix whose SPRT accepts discrimination names
// the AS, so loss-only evidence localizes at realistic round counts.
//
// Twins are measured ONE-WAY (send timestamp to delivery timestamp): both
// twin endpoints are Debuglet-controlled, so shared time comes with the
// deployment, and one-way delay sees forward-path discrimination without
// the return path diluting it.
//
// Everything here is deterministic under the scenario seed: twin payloads,
// source ports and pacing derive from the detector's own forked RNG, and
// the verdict — confidences included — is a pure function of the delivered
// samples.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simnet/network.hpp"
#include "util/stats.hpp"

namespace debuglet::core {

/// Per-twin-class treatment summary, accumulated at the receiving twin.
struct TwinClassSummary {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  SampleSet one_way_ms;
  /// Per-AS residence samples from delivered INT record stacks (empty
  /// when the network forwards without INT).
  std::map<topology::AsNumber, SampleSet> residence_ms;
  /// Largest drop-counter snapshot seen per AS (each AS tallies its own
  /// drops, so a jump localizes WHERE the missing twins died).
  std::map<topology::AsNumber, std::uint32_t> drops_seen;

  double loss_rate() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(sent - received) /
                           static_cast<double>(sent);
  }
};

/// One accusation: this AS treats the twin classes differently.
struct DiscriminationEvidence {
  /// The discriminating AS; 0 = discrimination visible end to end but not
  /// localizable (no intact INT or prefix evidence).
  topology::AsNumber asn = 0;
  /// [0, 1): a monotone map of the separation score (Welch-style for
  /// residence evidence, LLR-derived for sequential evidence).
  double confidence = 0.0;
  /// Mean data-like minus probe-like residence at this AS (ms); for
  /// asn = 0, the end-to-end one-way delta.
  double residence_delta_ms = 0.0;
  /// The raw separation score or LLR the confidence derives from.
  double score = 0.0;
  std::string detail;
};

/// Outcome of one twin-probe round set.
struct DiscriminationReport {
  TwinClassSummary probe_like;
  TwinClassSummary data_like;
  /// End-to-end mean one-way delta (data-like minus probe-like), ms.
  double delay_delta_ms = 0.0;
  /// Loss-rate delta (data-like minus probe-like).
  double loss_delta = 0.0;
  bool detected = false;
  /// Confidence-descending (ties break toward the lower AS number).
  std::vector<DiscriminationEvidence> suspects;
  /// Rounds actually emitted (the SPRT may stop before the round cap).
  std::uint64_t rounds_used = 0;
  /// How the run ended: "h1-delay", "h1-loss", "h1-both", "h0" or
  /// "exhausted".
  std::string decision;
  /// Final log-likelihood ratios of the two sequential arms.
  double delay_llr = 0.0;
  double loss_llr = 0.0;

  /// The accused AS (0 when nothing met the detection bar).
  topology::AsNumber named_as() const {
    return detected && !suspects.empty() ? suspects.front().asn : 0;
  }
  double top_confidence() const {
    return suspects.empty() ? 0.0 : suspects.front().confidence;
  }
  /// Deterministic multi-line rendering for chaos traces: equal seeds must
  /// reproduce it bit for bit.
  std::string trace() const;
};

/// Runs twin-probe rounds between two ASes over the live network and
/// compares per-class treatment. Attaches its own transient hosts at
/// ordinary (non-executor) addresses — the vantage diversity §VI-E calls
/// for — and drives the event queue until the rounds drain.
class DiscriminationDetector {
 public:
  /// `randomize_twins` selects randomized twin generation (per-round
  /// source ports, fresh payload tails, mimicry pacing jitter), the
  /// counter to a learning middlebox. false = static twins: one source
  /// port, one payload, metronome pacing (learnable on purpose, for
  /// arms-race tests).
  DiscriminationDetector(simnet::SimulatedNetwork& network,
                         topology::AsNumber client_as,
                         topology::AsNumber server_as, std::uint64_t seed,
                         bool randomize_twins = true);

  /// Emits twin rounds one at a time and stops as soon as the final
  /// collector's SPRT arms cross their error bounds (or at the round cap).
  Result<DiscriminationReport> run();

 private:
  simnet::SimulatedNetwork& network_;
  topology::AsNumber client_as_;
  topology::AsNumber server_as_;
  std::uint64_t seed_;
  bool randomize_twins_;
};

}  // namespace debuglet::core
