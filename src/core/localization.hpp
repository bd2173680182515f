// Fault localization over segment-by-segment measurements.
//
// Implements the paper's localization workflows: the A/B/C/D executor-pair
// procedure that isolates an inter-domain link or an AS interior
// (§IV-B, Fig. 6), and the initiator strategies of §VI-D — linear scans
// and binary search over a multi-AS path — with cost and time-to-locate
// accounting (the A2 ablation compares them).
#pragma once

#include <functional>

#include "core/discrimination.hpp"
#include "core/initiator.hpp"

namespace debuglet::core {

/// When is a measured segment considered faulty?
struct FaultCriteria {
  /// Expected healthy RTT per inter-domain link crossed (chain scenarios:
  /// 2 * hop propagation + transit).
  double per_link_rtt_ms = 10.0;
  /// Tolerated excess over the expected RTT before flagging.
  double slack_ms = 15.0;
  /// Tolerated loss rate before flagging.
  double max_loss = 0.05;
};

/// One measurement taken during localization.
struct LocalizationStep {
  std::size_t from_hop = 0;  // path hop indices (client side)
  std::size_t to_hop = 0;    // (server side)
  RttSummary summary;
  bool faulty = false;
  /// False when this segment could not be measured at all (its executors
  /// never produced a verifiable result); `failure` says why and
  /// `summary`/`faulty` are meaningless.
  bool measured = true;
  std::string failure;
  SimTime measured_at = 0;
  /// Remote executor counters attached as supporting evidence (scraped via
  /// core/remote_stats when an evidence collector is installed); rows
  /// carry the scraper's remote_host labels. Empty without a collector.
  std::vector<obs::MetricRow> evidence;
  /// Wire faults injected on this segment's inter-domain links (both
  /// directions, summed) WHILE this measurement ran — the per-segment
  /// delivery-integrity evidence a chaos report correlates with the
  /// verdict. All-zero when no LinkFaultPlan covers the segment.
  simnet::LinkIntegrityStats wire_integrity;
};

/// §VI-D strategies, plus the in-band telemetry shortcut.
enum class Strategy {
  kLinearSequential,  // probe link by link from the front, await each
  kBinarySearch,      // halve the suspect range each round
  kParallelSweep,     // buy every link at once: fastest, most expensive
  kInband,            // one INT probe round: per-hop records localize O(1)
};

std::string strategy_name(Strategy s);

/// Outcome of a localization run.
struct LocalizationReport {
  bool located = false;
  /// Fault lies on the inter-domain link after path hop `fault_link`.
  /// When executors died mid-run the localizer may only BRACKET the
  /// fault: it lies in [fault_link, fault_link_hi] (equal when exact).
  std::size_t fault_link = 0;
  std::size_t fault_link_hi = 0;
  /// True when the fault was pinned to a single link.
  bool exact = true;
  std::vector<LocalizationStep> steps;
  std::size_t measurements = 0;
  SimTime started = 0;
  SimTime finished = 0;
  chain::Mist tokens_spent = 0;

  // Degraded-mode accounting (all zero on a healthy run).
  std::size_t links_total = 0;
  /// Links the run could not individually resolve: links inside a
  /// multi-link fault bracket, plus links no surviving pair could cover.
  std::size_t links_unresolved = 0;
  std::size_t segments_unmeasured = 0;
  std::vector<std::string> notes;  // one line per degradation

  /// Twin-probe counter-measurement output (confidence-descending), when a
  /// discrimination probe was installed. A fault-hiding AS that showed the
  /// executor pairs a clean path is named HERE instead of passing silently
  /// — check it before trusting a "clean" verdict above.
  std::vector<DiscriminationEvidence> discrimination;

  SimDuration time_to_locate() const { return finished - started; }
  /// Fraction of the path's links individually resolved (1.0 = full).
  double coverage() const {
    return links_total == 0
               ? 1.0
               : 1.0 - static_cast<double>(links_unresolved) /
                           static_cast<double>(links_total);
  }
  /// "exact" | "bracketed" | "partial" | "clean" — how much to trust
  /// fault_link. "partial" = not located AND parts of the path went
  /// unresolved, so absence of evidence is not evidence of health.
  const char* confidence() const {
    if (located) return exact ? "exact" : "bracketed";
    return links_unresolved > 0 ? "partial" : "clean";
  }
};

/// §IV-B's intra-AS derivation: performance of the interior of an AS
/// computed from the whole-segment and adjacent-link measurements, without
/// ever measuring intra-domain traffic directly.
struct IntraAsDerivation {
  RttSummary whole;       // executor A .. executor D
  RttSummary left_link;   // A .. B
  RttSummary right_link;  // C .. D
  double intra_as_mean_ms() const {
    return whole.mean_ms - left_link.mean_ms - right_link.mean_ms;
  }
};

/// Runs Debuglet-pair measurements over sub-paths and localizes faults.
/// Operates on chain-scenario-style paths where each AS on the path has an
/// ingress-facing and an egress-facing executor.
class FaultLocalizer {
 public:
  FaultLocalizer(DebugletSystem& system, Initiator& initiator,
                 topology::AsPath path, FaultCriteria criteria,
                 net::Protocol protocol = net::Protocol::kUdp,
                 std::int64_t probes_per_measurement = 10,
                 std::int64_t probe_interval_ms = 200);

  /// Measures between the egress-side executor of `from_hop` and the
  /// ingress-side executor of `to_hop` with Initiator::measure_rtt_resilient
  /// (driving the event queue until the results publish) and summarizes
  /// them.
  Result<LocalizationStep> measure_segment(std::size_t from_hop,
                                           std::size_t to_hop);

  /// Full localization of (at most) one faulty inter-domain link.
  Result<LocalizationReport> run(Strategy strategy);

  /// The Fig. 6 procedure around the AS at path hop `as_hop`
  /// (0 < as_hop < path length - 1).
  Result<IntraAsDerivation> derive_intra_as(std::size_t as_hop);

  /// Gathers remote-executor metric rows to attach to a step as evidence —
  /// typically a closure around a RemoteScraper aimed at the segment's
  /// executors. Called after each segment measurement with the step and
  /// the executor pair it ran on; whatever it returns lands in
  /// LocalizationStep::evidence. Keeps localization decoupled from how
  /// (and whether) stats Debuglets were deployed.
  using EvidenceCollector = std::function<std::vector<obs::MetricRow>(
      const LocalizationStep& step, topology::InterfaceKey client_key,
      topology::InterfaceKey server_key)>;
  void set_evidence_collector(EvidenceCollector collector) {
    evidence_collector_ = std::move(collector);
  }

  /// Chaos tolerance: every segment measurement goes through the
  /// initiator's resilient path (retry + failover), and the parallel sweep
  /// awaits its purchases with Initiator::await_result. Runs with dead or
  /// byzantine executors degrade to bracketed / partial reports instead of
  /// erroring out. `retry` paces each segment's attempts.
  void set_resilience(RetryPolicy retry) { retry_ = retry; }

  /// Adversary tolerance: after the segment measurements conclude, run a
  /// twin-probe discrimination check (typically a closure around a
  /// DiscriminationDetector aimed at the path's endpoints). A detected
  /// discriminating AS lands in LocalizationReport::discrimination plus a
  /// note — the counter to §VI-E fault hiding, where an AS recognizes
  /// executor probes and shows them a health the rest of the traffic does
  /// not get. Probe failures degrade to a note, never an error.
  using DiscriminationProbe = std::function<Result<DiscriminationReport>()>;
  void set_discrimination_probe(DiscriminationProbe probe) {
    discrimination_probe_ = std::move(probe);
  }

 private:
  bool is_faulty(std::size_t links_crossed, const RttSummary& s) const;
  /// Cumulative injected-fault counters over the segment's inter-domain
  /// links (both directions); sampled before/after a measurement to get
  /// the step's wire_integrity delta.
  simnet::LinkIntegrityStats segment_integrity(std::size_t from_hop,
                                               std::size_t to_hop) const;
  /// measure_segment that degrades instead of failing: on error, returns
  /// a step with measured=false and records the degradation in `report`.
  LocalizationStep tolerant_segment(std::size_t from_hop, std::size_t to_hop,
                                    LocalizationReport& report);
  /// The binary-search pass, shared by Strategy::kBinarySearch and the
  /// in-band strategy's degraded fallback.
  void binary_search_pass(LocalizationReport& report);
  /// One in-band INT probe round. Returns true when intact per-hop
  /// evidence produced a verdict; false (with the degradation noted in
  /// `report`) tells the caller to fall back to out-of-band search.
  bool inband_pass(LocalizationReport& report);

  DebugletSystem& system_;
  Initiator& initiator_;
  topology::AsPath path_;
  FaultCriteria criteria_;
  net::Protocol protocol_;
  std::int64_t probes_;
  std::int64_t interval_ms_;
  EvidenceCollector evidence_collector_;
  RetryPolicy retry_;
  DiscriminationProbe discrimination_probe_;
};

}  // namespace debuglet::core
