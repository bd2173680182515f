// The measurement initiator.
//
// Drives the paper's five-step process (§IV-A): look up slots on-chain,
// purchase a pair (client + server Debuglet), then collect and verify the
// certified results that the executors publish through ResultReady.
#pragma once

#include <optional>

#include "apps/debuglets.hpp"
#include "core/retry.hpp"
#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace debuglet::core {

/// A purchased measurement awaiting results.
struct MeasurementHandle {
  chain::ObjectId client_application = 0;
  chain::ObjectId server_application = 0;
  /// The executor pair the measurement was purchased for; results must be
  /// certified by these ASes' keys.
  topology::InterfaceKey client_key;
  topology::InterfaceKey server_key;
  SimTime window_start = 0;
  SimTime window_end = 0;
  /// window_start plus the longer max_duration of the two manifests: the
  /// executors stop each run by then, give or take their setup time
  /// (milliseconds, well inside kResultGrace). A run may outlast its slot
  /// window, so this can lie past window_end.
  SimTime run_deadline = 0;
  chain::Mist price_paid = 0;
};

/// Both certified results of one measurement, verified.
struct MeasurementOutcome {
  executor::CertifiedResult client;
  executor::CertifiedResult server;
};

/// Why collecting one side of a measurement failed. Retry logic branches
/// on these codes — never on error-message strings. kNotPublished means
/// "run the queue further or the executor is down"; kVerificationFailed
/// means a published result was rejected (bad signature, wrong executor
/// key, undecodable) and waiting cannot help.
enum class CollectErrorKind : std::uint8_t {
  kNone = 0,
  kNotPublished,
  kVerificationFailed,
  kOther,  // chain lookup / decoding infrastructure failure
};

const char* collect_error_name(CollectErrorKind kind);

/// Per-side classification of a try_collect().
struct CollectSide {
  CollectErrorKind error = CollectErrorKind::kNone;
  std::string message;
};

/// Outcome of a try_collect(): the verified results when both sides are
/// in, otherwise which side failed and why.
struct CollectProbe {
  std::optional<MeasurementOutcome> outcome;
  CollectSide client;
  CollectSide server;

  bool ok() const { return outcome.has_value(); }
  bool any(CollectErrorKind kind) const {
    return client.error == kind || server.error == kind;
  }
};

/// Everything needed to purchase one measurement.
struct MeasurementRequest {
  topology::InterfaceKey client_key;
  topology::InterfaceKey server_key;
  marketplace::ApplicationPayload client_app;
  marketplace::ApplicationPayload server_app;
  SimTime earliest_start = 0;
  std::uint32_t cores = 1;
  std::uint64_t memory_bytes = 64 * 1024;
  std::uint64_t bandwidth_bps = 1'000'000;
  /// Private results (§IV-C): executors seal the outputs for the
  /// initiator's key; on-chain copies become unreadable to third parties.
  bool seal_results = false;
};

/// Summary statistics of an RTT measurement (from client samples).
struct RttSummary {
  std::size_t probes_sent = 0;
  std::size_t probes_answered = 0;
  double mean_ms = 0.0;
  double std_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  /// Samples discarded before the statistics: repeats of an
  /// already-answered sequence (duplicated probes or echoes) and samples
  /// whose RTT a damaged timestamp made impossible (negative) or
  /// implausible (far beyond the batch median).
  std::size_t duplicates_dropped = 0;
  std::size_t outliers_dropped = 0;

  double loss_rate() const {
    return probes_sent == 0
               ? 0.0
               : 1.0 - static_cast<double>(probes_answered) /
                           static_cast<double>(probes_sent);
  }
};

/// A client Debuglet's raw samples after integrity filtering.
struct SampleFilterResult {
  std::vector<apps::MeasurementSample> kept;
  std::size_t duplicates_dropped = 0;
  std::size_t outliers_dropped = 0;
};

/// Cleans raw probe samples before they feed localization: deduplicates
/// by sequence (keeping each sequence's smallest RTT — the first arrival;
/// later repeats are duplicated echoes carrying inflated clock deltas) and
/// drops damaged samples (negative RTTs from corrupted timestamps, and
/// RTTs beyond kRttOutlierFactor x the batch median — a genuine link fault
/// shifts the whole batch, so it survives this filter).
SampleFilterResult filter_probe_samples(
    std::vector<apps::MeasurementSample> samples);

/// The median-multiple beyond which a sample is judged damaged rather
/// than delayed. Wide enough that episode jitter never trips it.
inline constexpr double kRttOutlierFactor = 16.0;

/// Computes the summary from a client Debuglet's certified result. Raw
/// samples pass through filter_probe_samples first, so duplicated or
/// damaged probes cannot poison localization inputs; the counters
/// core.probe_duplicates_dropped / core.probe_outliers_dropped record
/// what the filter removed.
Result<RttSummary> summarize_rtt(const executor::CertifiedResult& client,
                                 std::size_t probes_sent);

/// One noteworthy event during a resilient measurement. The incident
/// sequence is the deterministic "retry/failover trace" the chaos suite
/// compares bit-for-bit across equal-seed runs.
struct MeasurementIncident {
  enum class Kind : std::uint8_t {
    kPurchaseFailed,
    kResultMissing,         // no ResultReady when await_result gave up
    kVerificationRejected,  // published result failed verification
    kReclaimed,             // partial refund recovered from a dead attempt
    kFailover,              // switched to an alternate executor
    kBackoff,               // waited per RetryPolicy before re-trying
    kAllProbesLost,         // verified result, zero answers: crashed host?
  };
  Kind kind = Kind::kResultMissing;
  std::uint32_t attempt = 0;
  topology::InterfaceKey client_key;
  topology::InterfaceKey server_key;
  std::string detail;

  std::string to_string() const;
};

/// The step of Initiator::await_result: how long past the slot window it
/// first collects, and how far it runs the queue before each re-collect.
inline constexpr SimDuration kResultGrace = duration::seconds(2);

/// A purchase-measure-collect loop that survives executor failure.
struct ResilientRttRequest {
  topology::InterfaceKey client_key;
  topology::InterfaceKey server_key;
  net::Protocol protocol = net::Protocol::kUdp;
  std::int64_t probe_count = 10;
  std::int64_t interval_ms = 200;
  SimTime earliest_start = 0;
  RetryPolicy retry;
};

/// What a resilient measurement went through before succeeding.
struct ResilientMeasurement {
  MeasurementOutcome outcome;
  MeasurementHandle handle;  // the purchase that finally served
  topology::InterfaceKey client_key;
  topology::InterfaceKey server_key;
  std::uint32_t attempts = 1;
  std::uint32_t failovers = 0;
  std::uint32_t byzantine_rejections = 0;
  chain::Mist reclaimed = 0;
  std::vector<MeasurementIncident> incidents;

  /// One line per incident — the determinism-check trace.
  std::string trace() const;
};

/// An initiator identity: a funded chain account that purchases
/// measurements and verifies published results.
class Initiator {
 public:
  /// Creates an initiator with a fresh key, funded with `funding` MIST.
  Initiator(DebugletSystem& system, std::uint64_t seed, chain::Mist funding);

  chain::Address address() const {
    return chain::Address::of(key_.public_key());
  }
  chain::Mist balance() const { return system_.chain().balance(address()); }

  /// Steps 1–3 of §IV-A: quote, purchase, and let the chain notify the
  /// executors. Returns immediately (in simulated time the measurement
  /// runs later); collect results after running the event queue.
  Result<MeasurementHandle> purchase(const MeasurementRequest& request);

  /// Retrieves and verifies both certified results of a measurement from
  /// the chain. Fails if either result is missing (run the queue further)
  /// or fails signature/AS-key verification; error messages are prefixed
  /// with the CollectErrorKind name. Use try_collect for the typed codes,
  /// and await_result unless the caller drives the queue itself.
  Result<MeasurementOutcome> collect(const MeasurementHandle& handle);

  /// Like collect, but classifies each side's failure instead of folding
  /// everything into one error string.
  CollectProbe try_collect(const MeasurementHandle& handle);

  /// Steps 4–5 of §IV-A: runs the event queue to window_end + kResultGrace
  /// and collects; while a result is still unpublished, runs kResultGrace
  /// more and collects again, until the later of window_end +
  /// 2 * kResultGrace and run_deadline + kResultGrace. Fails with
  /// collect()'s error at that time at the latest. DRIVES THE EVENT QUEUE.
  Result<MeasurementOutcome> await_result(const MeasurementHandle& handle);

  /// Steps 1–5 with chaos tolerance: purchase, await_result, and on a
  /// missing or rejected result reclaim what it can, fail over to an
  /// alternate executor on the same segment and back off per the policy —
  /// all in deterministic simulated time. DRIVES THE EVENT QUEUE.
  Result<ResilientMeasurement> measure_rtt_resilient(
      const ResilientRttRequest& request);

  /// Best-effort reclaim: frees whichever of the handle's application
  /// objects are reclaimable and ignores the rest (a dead executor's
  /// unserved application cannot be reclaimed until its result reports).
  /// Returns the total rebate recovered, possibly zero.
  chain::Mist reclaim_available(const MeasurementHandle& handle);

  /// Convenience for the common RTT measurement: builds the probe-client /
  /// echo-server pair from apps::, purchases it, and returns the handle.
  Result<MeasurementHandle> purchase_rtt_measurement(
      topology::InterfaceKey client_key, topology::InterfaceKey server_key,
      net::Protocol protocol, std::int64_t probe_count,
      std::int64_t interval_ms, SimTime earliest_start = 0,
      bool seal_results = false);

  /// The public key executors seal private results for.
  const crypto::PublicKey& public_key() const { return key_.public_key(); }

  /// Opens a sealed result's output with this initiator's key. Fails if
  /// the output was not sealed for this initiator or was tampered with.
  Result<Bytes> open_result(const executor::CertifiedResult& result) const;

  /// Frees both application objects after their results were reported,
  /// collecting the storage rebates (Table II's refund column). Returns
  /// the total rebate credited.
  Result<chain::Mist> reclaim(const MeasurementHandle& handle);

  chain::Mist total_spent() const { return total_spent_; }

  /// Accountability (marketplace/reputation.hpp): files a discrimination
  /// verdict on chain as a strike against the named AS. Idempotent per
  /// (AS, initiator) — re-reporting the same verdict never inflates the
  /// count. Returns the post-report record (strike total included).
  Result<marketplace::ReputationRecord> report_discrimination(
      topology::AsNumber asn, double confidence, std::uint64_t rounds_used,
      const std::string& detail);

 private:
  struct FetchOutcome {
    std::optional<executor::CertifiedResult> result;
    CollectErrorKind error = CollectErrorKind::kNone;
    std::string message;
  };
  FetchOutcome fetch_result(chain::ObjectId application,
                            topology::InterfaceKey key);
  /// await_result's wait, keeping each side's typed failure.
  CollectProbe await_probe(const MeasurementHandle& handle);
  Status reclaim_one(chain::ObjectId application, chain::Mist& rebate);

  DebugletSystem& system_;
  crypto::KeyPair key_;
  chain::Mist total_spent_ = 0;
  std::uint16_t next_rendezvous_port_ = 40000;
  Rng chaos_rng_;  // backoff jitter; forked from the initiator seed
  // Observability handles cached at construction (no-ops while disabled).
  struct ObsHandles {
    obs::Counter* purchased = nullptr;
    obs::Counter* collected = nullptr;
    obs::Counter* spent = nullptr;  // MIST: gas + slot prices
    obs::Counter* verification_rejected = nullptr;
    obs::Counter* executor_down = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* measurements_abandoned = nullptr;
  };
  ObsHandles obs_;
};

}  // namespace debuglet::core
