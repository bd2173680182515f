// Per-link forwarding behaviour with protocol-differential treatment.
//
// The paper's motivation (§II) is that forwarding devices treat packets
// differently by protocol: ICMP rides priority queues; UDP is load-balanced
// per packet across parallel routes; TCP is pinned per flow and
// deprioritized (dropped preferentially) on congested links; raw IP follows
// stable routes. This module expresses exactly those mechanisms, per
// directed inter-domain link:
//
//   * a set of parallel ROUTES, each with a latency offset, jitter, and
//     base loss (router-level ECMP / LAG members);
//   * a per-protocol SELECTION POLICY over those routes — fixed,
//     per-packet, or per-flow;
//   * EPISODE processes (congestion, route elevation): ON/OFF renewal
//     processes adding delay and loss to a chosen protocol set, skipped by
//     priority traffic;
//   * slow ROUTE-SHIFT drift re-drawn at random times (BGP path changes);
//   * an injectable FAULT overlay for localization experiments.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "obs/metrics.hpp"
#include "simnet/link_faults.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace debuglet::simnet {

/// One parallel route (ECMP/LAG member) within a link.
struct RouteSpec {
  double offset_ms = 0.0;    // latency relative to the link's propagation
  double jitter_ms = 0.0;    // gaussian jitter stddev (truncated at 0)
  double loss_pm = 0.0;      // base loss, per mille
};

/// How a protocol chooses among routes.
enum class SelectionPolicy {
  kFixed,      // always routes.front()
  kPerPacket,  // uniform per packet (fine-grained load balancing; UDP)
  kPerFlow,    // hash of the 5-tuple, stable per flow (TCP)
};

/// A protocol's forwarding treatment on this link.
struct ProtocolPolicy {
  SelectionPolicy selection = SelectionPolicy::kFixed;
  std::vector<std::size_t> routes{0};  // candidate route indices
  double drop_multiplier = 1.0;        // >1 = deprioritized on congestion
  bool priority = false;               // true = skips episode queueing
};

/// An ON/OFF renewal process adding delay/loss while ON.
struct EpisodeSpec {
  std::string label;
  double on_mean_s = 0.0;    // mean episode duration; 0 disables
  double off_mean_s = 1.0;   // mean gap between episodes
  double extra_delay_ms = 0.0;
  double extra_loss_pm = 0.0;
  std::set<net::Protocol> affects;  // empty = affects all protocols
};

/// Slow piecewise-constant drift of route offsets (BGP route changes over a
/// day). Each route drifts independently, so protocols pinned to different
/// routes shift without cross-correlation (paper Fig. 3 discussion).
struct ShiftSpec {
  double period_mean_s = 0.0;  // mean dwell between shifts; 0 disables
  double amplitude_ms = 0.0;   // each shift draws uniform [-a, +a]
};

/// Operator-injected fault for localization experiments.
struct FaultSpec {
  double extra_delay_ms = 0.0;
  double extra_loss_pm = 0.0;
  SimTime start = 0;
  SimTime end = 0;  // exclusive; end <= start means "never active"

  bool active_at(SimTime t) const { return t >= start && t < end; }
};

/// Full configuration of one direction of a link.
struct LinkConfig {
  double propagation_ms = 1.0;
  /// Link capacity; packets add size*8/bandwidth serialization delay
  /// (0 = infinite). Packet size affecting forwarding delay is one reason
  /// the paper equalizes probe lengths (§II).
  double bandwidth_bps = 0.0;
  std::vector<RouteSpec> routes{{}};
  std::map<net::Protocol, ProtocolPolicy> policies;  // missing = defaults
  std::vector<EpisodeSpec> episodes;
  ShiftSpec shift;
  /// Addresses whose traffic the operator covertly prioritizes (skipping
  /// episode queueing/loss) — the fault-hiding strategy of paper §VI-E.
  /// Matched against both source and destination.
  std::set<net::Ipv4Address> prioritized_addresses;
};

/// One copy of a frame coming off the far end of a link. A healthy
/// crossing yields exactly one undamaged copy; a LinkFaultPlan can damage
/// it, hold it back, or mint extra copies.
struct DeliveryCopy {
  SimDuration delay = 0;
  std::size_t route = 0;
  bool duplicate = false;  // an extra copy beyond the original
  bool reordered = false;  // held back by a forced-reordering burst
  WireDamage damage;       // corruption/truncation to apply to the bytes
};

/// The outcome of one packet crossing one link: zero or more delivery
/// copies (zero = lost), the primary first.
struct TraverseOutcome {
  std::vector<DeliveryCopy> copies;
};

/// Stateful directional link simulator. All stochastic state (episode
/// phases, shifts, per-flow pins) lives here and advances lazily with the
/// query time, so links are pay-as-you-go regardless of scenario length.
class LinkModel {
 public:
  LinkModel(LinkConfig config, Rng rng);

  /// Simulates one packet crossing at time `now`. `flow_hash` identifies
  /// the 5-tuple for per-flow selection; `source`/`destination` feed the
  /// operator's covert prioritization list (defaults match nothing);
  /// `size_bytes` adds serialization delay on capacity-limited links.
  TraverseOutcome traverse(net::Protocol protocol, std::uint64_t flow_hash,
                           SimTime now,
                           net::Ipv4Address source = net::Ipv4Address(),
                           net::Ipv4Address destination = net::Ipv4Address(),
                           std::uint32_t size_bytes = 0);

  /// Installs (replaces) the fault overlay.
  void inject_fault(const FaultSpec& fault) { fault_ = fault; }
  void clear_fault() { fault_ = FaultSpec{}; }
  const FaultSpec& fault() const { return fault_; }

  /// Installs (replaces) the wire-fault schedule. `rng` must be forked
  /// from the scenario seed by the caller (SimulatedNetwork derives it
  /// from the network seed and the link identity) so that equal-seed runs
  /// damage the same packets the same way regardless of install order.
  void install_fault_plan(LinkFaultPlan plan, Rng rng);
  void clear_fault_plan();

  /// Running totals of wire faults this link has injected.
  const LinkIntegrityStats& integrity() const { return integrity_; }

  /// Episode processes currently ON at `now` — the queue-depth proxy an
  /// INT hop record snapshots at enqueue. Advancing to a time the link
  /// has already been queried at draws no randomness, so calling this
  /// right after traverse() leaves the RNG stream untouched.
  std::uint32_t active_episodes(SimTime now);

  const LinkConfig& config() const { return config_; }

  /// Hard lower bound on this direction's delay, in milliseconds: half
  /// the propagation time, at least 1 µs. traverse() never returns a
  /// copy faster than this even when negative route offsets and jitter
  /// conspire (it used to clamp at zero); the event queue's cross-domain
  /// lookahead is derived from the smallest floor of any configured link
  /// (docs/SIMNET.md). Calibrated scenarios sit far above their floors,
  /// so the clamp never binds in practice.
  double floor_ms() const;

  /// Mean delay this link would add for a protocol right now, faults and
  /// active episodes included — ground truth for localization tests.
  double expected_delay_ms(net::Protocol protocol, SimTime now) const;

 private:
  struct EpisodeState {
    bool on = false;
    SimTime next_toggle = 0;
  };
  const ProtocolPolicy& policy_for(net::Protocol p) const;
  void advance_episodes(SimTime now);
  void advance_shift(SimTime now);
  std::size_t select_route(const ProtocolPolicy& policy,
                           std::uint64_t flow_hash);
  void apply_fault_plan(TraverseOutcome& out, SimTime now,
                        std::uint32_t size_bytes);

  LinkConfig config_;
  Rng rng_;
  ProtocolPolicy default_policy_;
  std::vector<EpisodeState> episode_states_;
  std::vector<double> route_shift_ms_;     // per-route drift offsets
  std::vector<SimTime> next_route_shift_;  // per-route next redraw time
  std::map<std::uint64_t, std::size_t> flow_pins_;
  std::uint64_t pin_epoch_ = 0;  // flows re-pin after each route shift
  FaultSpec fault_;
  LinkFaultPlan fault_plan_;
  Rng fault_rng_{0};  // replaced on install; untouched while plan empty
  LinkIntegrityStats integrity_;
  // Registry counters mirroring `integrity_` (shared across links via the
  // kind label; all no-op while obs is disabled).
  struct WireFaultObs {
    obs::Counter* corrupted = nullptr;
    obs::Counter* truncated = nullptr;
    obs::Counter* duplicated = nullptr;
    obs::Counter* reordered = nullptr;
    obs::Counter* flap_dropped = nullptr;
  };
  WireFaultObs fault_obs_;
};

}  // namespace debuglet::simnet
