// Adversarial middleboxes (the DPI chaos layer).
//
// LinkFaultPlan damages the WIRE at random; a MiddleboxPlan models an AS
// that damages traffic ON PURPOSE. The paper's premise (§II) is that
// networks treat traffic differentially, and §VI-E assumes operators may
// actively hide faults from measurement infrastructure. Following the
// DPI-fingerprinting literature (PAPERS.md), the middlebox first
// CLASSIFIES each packet by port/protocol/payload heuristics, then applies
// a per-class policy:
//
//   * drop         — discard a fraction of the class;
//   * deprioritize — park the class in a slow queue (extra residence);
//   * throttle     — deterministic per-second packet budget, excess drops;
//   * mangle       — flip bits in the application payload (ambiguity
//                    resolution gone wrong, per the DPI paper).
//
// On top of the per-class policies sits FAULT HIDING: the plan can
// recognize known executor addresses and classic probe signatures and give
// that traffic CLEAN treatment while everything else suffers — the §VI-E
// attack. The counter-measurement lives in core/discrimination.hpp: twin
// probes that differ only in what the classifier thinks they are.
//
// The ADAPTIVE mode turns the static classifier into a learner (the arms
// race): the middlebox keeps an online frequency table over the signature
// features of traffic it classified as measurement — (src-port bucket,
// payload-prefix hash, size bucket), with pacing tracked per entry — and
// once a signature recurs past the learning horizon it is PROMOTED into
// the DPI verdict: any packet matching a promoted signature is treated as
// measurement traffic, whatever its ports say. Against a fault-hiding
// plan this means the adversary learns a repeated twin campaign and gives
// BOTH twins the clean ride, erasing the differential the detector keys
// on. Stateful flow tracking (per-5-tuple table with idle eviction and
// TCP stream byte counting) pins a flow's class at its first packet so
// verdicts are per-flow rather than per-packet.
//
// Determinism contract: classification is a pure function of the packet;
// every stochastic policy choice draws from the owning domain's middlebox
// RNG stream (forked from the scenario seed) — equal-seed runs
// discriminate identically, and an AS without a middlebox draws nothing.
// Learning and flow tracking are pure counting (zero RNG draws) over the
// domain's own state, so inert plans stay bit-identical to before.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "net/packet.hpp"
#include "simnet/link_faults.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace debuglet::simnet {

/// What the DPI engine thinks a packet is. Coarse on purpose: real
/// classifiers bucket, they do not understand.
enum class TrafficClass : std::uint8_t {
  kMeasurement = 0,  // ICMP/raw-IP probes, measurement ports, padded probes
  kInteractive = 1,  // TCP on well-known service ports
  kBulk = 2,         // large payloads
  kOther = 3,        // everything the heuristics cannot place
};
inline constexpr std::size_t kTrafficClassCount = 4;

/// Stable label text ("measurement", "interactive", "bulk", "other").
const char* traffic_class_name(TrafficClass c);

/// The port/protocol/payload heuristics. ICMP and the paper's raw-IP
/// protocol, traceroute/Debuglet port ranges, and low-entropy padded
/// payloads read as measurement; well-known TCP services as interactive;
/// big payloads as bulk. A leading INT block (network metadata, not
/// application bytes) is skipped before payload inspection.
TrafficClass classify_packet(const net::Packet& packet);

/// What one middlebox does to one traffic class. All rates per mille;
/// a default-constructed policy is a no-op.
struct ClassPolicy {
  double drop_pm = 0.0;            // random discard chance
  double extra_delay_ms = 0.0;     // deprioritization: slow-queue residence
  double delay_jitter_ms = 0.0;    // jitter on the slow queue (|normal|)
  double mangle_pm = 0.0;          // payload bit-flip chance
  std::uint32_t mangle_max_bit_flips = 4;
  std::uint32_t throttle_pps = 0;  // 0 = unthrottled; else packets/second

  bool empty() const {
    return drop_pm <= 0.0 && extra_delay_ms <= 0.0 && mangle_pm <= 0.0 &&
           throttle_pps == 0;
  }
};

/// Ground-truth action tally of one middlebox — what the adversary
/// actually did, for tests and chaos traces to compare against what the
/// detector inferred. Mirrors LinkIntegrityStats for the wire layer.
struct MiddleboxStats {
  std::array<std::uint64_t, kTrafficClassCount> classified{};
  std::uint64_t dropped = 0;        // policy drops (not throttle)
  std::uint64_t deprioritized = 0;  // copies given extra residence
  std::uint64_t mangled = 0;        // copies with payload damage recorded
  std::uint64_t throttled = 0;      // drops from the per-second budget
  std::uint64_t exempted = 0;       // fault hiding: recognized, passed clean
  // Adaptive-mode ground truth (all zero when the mode is off).
  std::uint64_t signatures_learned = 0;   // sightings recorded by the learner
  std::uint64_t signatures_promoted = 0;  // promotions into the DPI verdict
  std::uint64_t adaptive_matched = 0;     // packets reclassified by a match
  std::uint64_t flows_tracked = 0;        // flow-table insertions
  std::uint64_t flows_evicted = 0;        // idle/capacity flow evictions

  std::uint64_t inspected() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : classified) n += c;
    return n;
  }
  std::uint64_t actions() const {
    return dropped + deprioritized + mangled + throttled;
  }
};

/// Knobs of the learning (adaptive) DPI mode. Disabled by default: a plan
/// without `enabled` behaves exactly as the static model, draws nothing
/// extra, and keeps no state.
struct AdaptiveConfig {
  bool enabled = false;
  /// The learning horizon: sightings of one signature before it is
  /// promoted into the DPI verdict.
  std::uint32_t promote_after = 8;
  /// Signatures idle longer than this are forgotten (promoted or not).
  SimDuration signature_ttl = duration::seconds(30);
  /// Capacity bound of the signature table; the stalest entry is evicted
  /// deterministically when full.
  std::size_t max_signatures = 256;
  /// Flows idle longer than this are evicted from the flow table.
  SimDuration flow_idle_timeout = duration::seconds(10);
  /// Capacity bound of the flow table (stalest-first eviction).
  std::size_t max_flows = 1024;
};

/// The DPI schedule of one AS. Composable with HostFaultPlan and
/// LinkFaultPlan chaos; an empty plan costs one branch on the forwarding
/// path. Builder shorthands chain, mirroring LinkFaultPlan.
class MiddleboxPlan {
 public:
  /// Sets the policy of one class, of every class, or of every class
  /// except measurement (the classic discriminator: probes ride clean).
  MiddleboxPlan& policy(TrafficClass c, const ClassPolicy& p);
  MiddleboxPlan& policy_all(const ClassPolicy& p);
  MiddleboxPlan& policy_except_measurement(const ClassPolicy& p);

  /// Fault hiding (§VI-E): packets to/from a recognized address pass
  /// clean, whatever their class.
  MiddleboxPlan& recognize(net::Ipv4Address address);
  /// Fault hiding: anything classified as measurement passes clean.
  MiddleboxPlan& recognize_probe_signatures(bool on = true);

  /// Scopes the whole plan to a [start, end) window (default: always).
  MiddleboxPlan& window(FaultWindow w);

  /// Turns on the learning mode (signature promotion + stateful flows).
  MiddleboxPlan& adaptive(const AdaptiveConfig& cfg);

  bool empty() const;
  const AdaptiveConfig& adaptive_config() const { return adaptive_; }
  bool adaptive_enabled() const { return adaptive_.enabled; }
  /// True when the plan treats recognized traffic differently — i.e. it
  /// is hiding something.
  bool hiding() const {
    return !recognized_.empty() || recognize_signatures_;
  }
  const ClassPolicy& policy_for(TrafficClass c) const {
    return policies_[static_cast<std::size_t>(c)];
  }
  bool recognizes(const net::Packet& packet, TrafficClass cls) const;
  const FaultWindow& active_window() const { return window_; }

 private:
  std::array<ClassPolicy, kTrafficClassCount> policies_{};
  std::vector<net::Ipv4Address> recognized_;
  bool recognize_signatures_ = false;
  FaultWindow window_ = kAlways;
  AdaptiveConfig adaptive_;
};

/// One learned signature: how often it was sighted as measurement traffic
/// and when, plus the pacing buckets observed (telemetry, not part of the
/// matching key — twins of one pair inherently pace differently).
struct SignatureState {
  std::uint32_t sightings = 0;
  bool promoted = false;
  SimTime last_seen = 0;
  std::uint8_t pacing_min = 0xFF;  // log2-ms buckets observed
  std::uint8_t pacing_max = 0;
};

/// One tracked flow (stateful DPI): class pinned at the first packet,
/// per-direction-agnostic byte tally, TCP stream bytes counted separately.
struct FlowState {
  TrafficClass cls = TrafficClass::kOther;
  SimTime first_seen = 0;
  SimTime last_seen = 0;
  std::uint64_t packets = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t tcp_stream_bytes = 0;  // TCP payload bytes only
};

/// Per-domain middlebox bookkeeping: throttle windows, and — in adaptive
/// mode — the signature frequency table, the flow table, and per-source
/// pacing anchors. Owned by the domain's DomainState, touched only by its
/// events; ordered maps keep every sweep and eviction deterministic.
struct MiddleboxRuntime {
  std::int64_t window_second = -1;
  std::array<std::uint32_t, kTrafficClassCount> sent_in_window{};
  /// Signature key -> learning state (adaptive mode only).
  std::map<std::uint64_t, SignatureState> signatures;
  /// 5-tuple hash -> flow state (adaptive mode only).
  std::map<std::uint64_t, FlowState> flows;
  /// Source address -> last time a measurement-class packet from it was
  /// seen (the pacing-gap anchor).
  std::map<std::uint32_t, SimTime> last_measurement_at;
};

/// The signature key of one packet under the adaptive feature model:
/// (src-port bucket, payload-prefix FNV hash after the INT skip, size
/// bucket) packed into one word. Pure function of the packet.
std::uint64_t adaptive_signature_of(const net::Packet& packet);

/// The 5-tuple flow key used by the stateful flow table (FNV-1a over
/// protocol, addresses and ports; direction-sensitive).
std::uint64_t middlebox_flow_key(const net::Packet& packet);

/// The decision the middlebox took for one packet copy.
struct MiddleboxVerdict {
  TrafficClass cls = TrafficClass::kOther;
  bool inspected = false;  // false outside the plan's window
  bool exempted = false;   // recognized (fault hiding), passed clean
  bool dropped = false;    // policy or throttle discard
  bool throttled = false;  // the drop came from the per-second budget
  double extra_delay_ms = 0.0;
  bool mangled = false;
  WireDamage damage;  // recorded payload damage when mangled
  // Adaptive mode: the class came from a promoted signature or a pinned
  // flow rather than the static heuristics.
  bool adaptive_matched = false;
  bool promoted_signature = false;  // this packet crossed the horizon
  std::uint32_t flows_evicted = 0;  // evictions performed on this call
};

/// Runs one packet copy through the plan. Draws (in fixed order) from
/// `rng` only for the policies actually configured; updates `runtime` and
/// `stats` in place. `now` gates the plan's window and the throttle
/// second.
MiddleboxVerdict apply_middlebox(const MiddleboxPlan& plan,
                                 const net::Packet& packet, SimTime now,
                                 Rng& rng, MiddleboxRuntime& runtime,
                                 MiddleboxStats& stats);

}  // namespace debuglet::simnet
