// The simulated inter-domain network.
//
// Combines a Topology (AS graph), per-directed-link LinkModels, per-AS
// transit delays, and attached Hosts into a packet-level simulator driven
// by an EventQueue. Real on-wire bytes (net::build_probe output) go in;
// parsed packets come out at the destination host after the accumulated
// per-link treatment — or never, if any link dropped the packet.
//
// Domain model (docs/SIMNET.md): every piece of mutable simulation state
// belongs to a DOMAIN — an AS number for data-plane state (link models,
// transit RNGs, hosts living at 10.x.y.200+ addresses) or the control
// domain for everything else (executors at border-interface addresses, the
// chain, the main thread). A packet is forwarded hop by hop: each link
// crossing is its own event, homed on the ingress AS's domain, and all
// forwarding randomness is drawn from that domain's own streams, forked
// from the scenario seed and kept in the domain's one AsRecord.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/host_faults.hpp"
#include "simnet/link_model.hpp"
#include "simnet/middlebox.hpp"
#include "telemetry/int_header.hpp"
#include "topology/topology.hpp"

namespace debuglet::simnet {

/// Delivery receipt passed to hosts alongside the decoded packet.
struct Delivery {
  net::Packet packet;
  SimTime sent_at = 0;
  SimTime received_at = 0;
};

/// Anything that can be attached to the network at an address.
class Host {
 public:
  virtual ~Host() = default;
  /// Called when a packet addressed to this host arrives, on an event
  /// homed on the host's domain.
  virtual void on_packet(const Delivery& delivery) = 0;
};

/// Per-AS internal forwarding characteristics (border-to-border transit).
struct TransitConfig {
  double delay_ms = 0.2;
  double jitter_ms = 0.02;
  double loss_pm = 0.0;
};

/// Intra-AS stub between a host and its border router. Executors at border
/// routers have a zero stub; hosts placed at arbitrary points inside an AS
/// (ablation A1, paper §VI-G) pay it on every send and every delivery.
struct AccessConfig {
  double delay_ms = 0.0;
  double jitter_ms = 0.0;
};

/// How an AS's border routers answer expired-TTL packets — the knobs the
/// paper's §II names as traceroute's limitations: "responding with ICMP
/// TTL exceeded message is disabled or rate-limited on many routers", and
/// replies are generated on the SLOW PATH while data rides the fast path.
struct IcmpReplyPolicy {
  bool time_exceeded_enabled = true;
  double slow_path_ms = 4.0;         // extra control-plane processing
  double slow_path_jitter_ms = 2.0;
  std::uint32_t rate_limit_per_s = 0;  // 0 = unlimited
};

/// Aggregate send/drop accounting, per protocol. Only protocols with a
/// nonzero count appear in the maps.
struct NetworkStats {
  std::map<net::Protocol, std::uint64_t> sent;
  std::map<net::Protocol, std::uint64_t> delivered;
  std::map<net::Protocol, std::uint64_t> dropped;
};

/// The simulator. Construction order: build the Topology, create the
/// network, configure links and transit, attach hosts, then send.
class SimulatedNetwork {
 public:
  SimulatedNetwork(EventQueue& queue, topology::Topology topology,
                   std::uint64_t seed);
  ~SimulatedNetwork();

  const topology::Topology& topology() const { return topology_; }
  EventQueue& queue() { return queue_; }
  SimTime now() const { return queue_.now(); }

  /// Configures one direction of an inter-domain link (from -> to). Both
  /// keys must be the two ends of an existing link. Registers the link's
  /// latency floor with the event queue (the cross-domain lookahead).
  Status configure_link(topology::InterfaceKey from, topology::InterfaceKey to,
                        LinkConfig config);

  /// Configures both directions with the same config.
  Status configure_link_symmetric(topology::InterfaceKey a,
                                  topology::InterfaceKey b, LinkConfig config);

  /// Sets the internal transit behaviour of an AS (no effect on an AS the
  /// topology does not have).
  void configure_transit(topology::AsNumber asn, TransitConfig config);

  /// Sets how an AS's border routers answer TTL expiries (no effect on an
  /// AS the topology does not have).
  void configure_icmp_policy(topology::AsNumber asn, IcmpReplyPolicy policy);

  /// Attaches a host at an explicit address. Host addresses inside an AS
  /// use the form 10.<asn_hi>.<asn_lo>.<200+n>; executor hosts attach at
  /// their border-interface address (10.<asn_hi>.<asn_lo>.<intf>).
  Status attach_host(net::Ipv4Address address, Host* host,
                     AccessConfig access = {});
  void detach_host(net::Ipv4Address address);

  /// A fresh host address within an AS (10.x.y.200, .201, ... .255).
  /// Throws std::out_of_range when all 56 of an AS's are taken.
  net::Ipv4Address allocate_host_address(topology::AsNumber asn);

  /// The AS an address belongs to (addresses encode the AS number).
  topology::AsNumber as_of(net::Ipv4Address address) const;

  /// The event-queue domain an address's host events run on: the AS
  /// number for in-AS hosts (last octet >= 200), the control domain for
  /// border-interface addresses (executors, routers). Hosts scheduling
  /// their own timers should home them here via EventQueue::schedule_on.
  std::uint32_t domain_of(net::Ipv4Address address) const;

  /// Sends raw wire bytes originating at `from_address`. The packet's IP
  /// source must equal `from_address`. Fails on malformed packets, unknown
  /// destinations, or unconfigured links; transmission itself never fails —
  /// losses happen silently in the link models.
  Status send(net::Ipv4Address from_address, Bytes wire);

  /// Pins the path used between two ASes (both directions must be pinned
  /// separately; unpinned pairs use the topology's shortest path).
  void pin_path(topology::AsNumber src, topology::AsNumber dst,
                topology::AsPath path);

  /// Injects a fault into one direction of a link. The link must have been
  /// configured first.
  Status inject_fault(topology::InterfaceKey from, topology::InterfaceKey to,
                      const FaultSpec& fault);
  Status clear_fault(topology::InterfaceKey from, topology::InterfaceKey to);

  /// Installs (replaces) a wire-fault schedule on one direction of a
  /// configured link. The plan's RNG derives from the network seed and the
  /// link identity, so equal-seed scenarios damage identically regardless
  /// of install order — `--check-determinism` holds under link chaos.
  Status install_link_faults(topology::InterfaceKey from,
                             topology::InterfaceKey to, LinkFaultPlan plan);
  Status clear_link_faults(topology::InterfaceKey from,
                           topology::InterfaceKey to);

  /// Wire-fault totals injected so far on one direction (zeroes when the
  /// link is unconfigured) — per-segment delivery-integrity evidence for
  /// the localizer.
  LinkIntegrityStats link_integrity(topology::InterfaceKey from,
                                    topology::InterfaceKey to) const;

  /// Installs a node-level fault schedule for the host at `address`
  /// (replacing any previous plan). The address's AS must exist; the host
  /// itself need not be attached yet — plans outlive attach/detach cycles.
  Status install_host_faults(net::Ipv4Address address, HostFaultPlan plan);
  /// Convenience: faults the executor host at a border interface.
  Status install_host_faults(topology::InterfaceKey key, HostFaultPlan plan);
  void clear_host_faults(net::Ipv4Address address);

  /// The resolved host-fault state of an address at time `t` (kNone when
  /// no plan is installed) — ground truth for tests and schedulers.
  HostFaultState host_fault_state(net::Ipv4Address address, SimTime t) const;

  /// Installs (replaces) an adversarial middlebox at an AS's borders: every
  /// copy entering the AS is DPI-classified and run through the plan's
  /// per-class policy (drop / deprioritize / throttle / mangle), with
  /// fault-hiding exemptions for recognized traffic. Composable with host
  /// and link fault plans; deterministic under the scenario seed (the
  /// plan's draws come from the owning domain's middlebox RNG stream).
  Status install_middlebox(topology::AsNumber asn, MiddleboxPlan plan);
  void clear_middlebox(topology::AsNumber asn);

  /// Ground-truth action tally of the middlebox at `asn` (zeroes when none
  /// was ever installed) — what the adversary really did, for tests and
  /// chaos traces to hold against the detector's inference. The tally and
  /// the learner's state belong to the AS: they outlive clear_middlebox
  /// and carry over to the next install.
  MiddleboxStats middlebox_stats(topology::AsNumber asn) const;

  /// In-band telemetry (INT). When enabled, UDP and raw-IP packets whose
  /// payload begins with a valid telemetry::IntHeader get one HopRecord
  /// appended per inter-domain link crossed (at the terminating AS's
  /// ingress border router). Off by default; when off the forwarding path
  /// pays exactly one branch and the RNG draw order is unchanged either
  /// way. ICMP/TCP packets never carry INT: their transport checksums
  /// cover the payload, and a forwarding device must not rewrite them.
  void set_int_enabled(bool on) { int_enabled_ = on; }
  bool int_enabled() const { return int_enabled_; }

  /// Ground-truth expected one-way delay for a protocol on a path now.
  Result<double> expected_path_delay_ms(const topology::AsPath& path,
                                        net::Protocol protocol) const;

  /// Snapshot of the per-protocol counters.
  NetworkStats stats() const;

  /// The link model for a direction (for tests; null if unconfigured).
  LinkModel* link_model(topology::InterfaceKey from, topology::InterfaceKey to);

 private:
  /// One in-flight copy of a frame, moved hop by hop through raw events.
  struct FlightCopy;
  /// Pool of FlightCopy nodes: reuses allocations (and their vector
  /// capacity) across packets and reclaims in-flight copies on teardown.
  struct FlightPool;

  /// One installed middlebox, with its obs handles pre-resolved at install
  /// time (the forwarding path must not pay registry lookups).
  struct MiddleboxEntry {
    MiddleboxPlan plan;
    std::array<obs::Counter*, kTrafficClassCount> classified{};
    obs::Counter* dropped = nullptr;
    obs::Counter* deprioritized = nullptr;
    obs::Counter* mangled = nullptr;
    obs::Counter* throttled = nullptr;
    obs::Counter* exempted = nullptr;
    // Adaptive (learning) mode only.
    obs::Counter* adaptive_matched = nullptr;
    obs::Counter* adaptive_promoted = nullptr;
    obs::Counter* flows_evicted = nullptr;
  };

  /// Everything one domain owns: an AS, or the control plane. Its mutable
  /// state is touched only by events homed on the domain, and every
  /// forwarding draw that is not a link's own comes from its streams.
  struct AsRecord {
    Rng transit_rng{0};
    Rng access_rng{0};
    Rng icmp_rng{0};
    Rng middlebox_rng{0};
    /// Drops counted while this domain was executing — the value INT hop
    /// records snapshot as drops_seen (a border router knows its own AS's
    /// tally, not a network-wide one).
    std::uint64_t drops = 0;
    // ICMP time-exceeded rate limiting (per-second window, per AS).
    std::int64_t icmp_window_second = -1;
    std::uint32_t icmp_sent_in_window = 0;
    TransitConfig transit;
    IcmpReplyPolicy icmp_policy;
    std::optional<MiddleboxEntry> middlebox;
    /// Middlebox throttle windows, learner and ground-truth tally: they
    /// outlive the installed plan.
    MiddleboxRuntime mb_runtime;
    MiddleboxStats mb_stats;
  };

  /// A configured directed link, keyed by its egress interface (an
  /// interface carries exactly one cable, so the egress key alone
  /// identifies the direction; `to` is kept to validate lookups).
  struct LinkEntry {
    topology::InterfaceKey to;
    std::unique_ptr<LinkModel> model;
    /// The record of the AS the link enters, whose domain the crossing's
    /// hop event is homed on.
    AsRecord* ingress = nullptr;
  };
  struct AttachedHost {
    Host* host = nullptr;
    AccessConfig access;
  };

  LinkEntry* find_link(topology::InterfaceKey from, topology::InterfaceKey to);
  const LinkEntry* find_link(topology::InterfaceKey from,
                             topology::InterfaceKey to) const;
  AsRecord* find_record(std::uint32_t domain);
  AsRecord& current_record();

  Result<std::shared_ptr<const topology::AsPath>> resolve_path(
      topology::AsNumber src, topology::AsNumber dst) const;
  void expire_with_time_exceeded(const net::Packet& packet,
                                 topology::InterfaceKey router, SimTime sent_at,
                                 double forward_delay_ms, AsRecord& as);

  // The forwarding pipeline. Each stage is a raw event homed on the
  // domain that owns the state it touches: process_hop on the crossed
  // link's ingress AS, process_arrival on the destination's domain (access
  // stub + fault window draws), process_delivery likewise (parse + host
  // callback). Trampolines adapt to EventQueue::RawFn.
  static void hop_event(void* arg);
  static void arrival_event(void* arg);
  static void delivery_event(void* arg);
  void process_hop(FlightCopy* fc);
  void process_arrival(FlightCopy* fc);
  void process_delivery(FlightCopy* fc);
  void schedule_arrival(FlightCopy* fc);
  void push_int_record(FlightCopy* fc, const topology::PathHop& hop,
                       bool interior, double link_delay_ms,
                       double residence_ms, double delay_at_entry_ms,
                       std::uint32_t queue_depth, std::uint32_t wire_faults,
                       const AsRecord& as);

  /// Counts a drop in the global per-protocol tally and in the executing
  /// domain's local drop counter (the value INT hop records snapshot).
  void count_drop(net::Protocol protocol);

  /// Dense index for per-protocol metric arrays (Protocol values are
  /// sparse wire numbers; the hot path must not pay a map lookup).
  static constexpr std::size_t proto_index(net::Protocol p) {
    switch (p) {
      case net::Protocol::kIcmp: return 0;
      case net::Protocol::kTcp: return 1;
      case net::Protocol::kUdp: return 2;
      case net::Protocol::kRawIp: return 3;
    }
    return 0;
  }

  EventQueue& queue_;
  topology::Topology topology_;
  Rng rng_;
  const std::uint64_t seed_;  // scenario seed; per-domain RNGs derive here

  // One record per domain: the control domain (0, first in order) and
  // every topology AS, all created at construction.
  std::map<std::uint32_t, AsRecord> records_;
  std::map<topology::InterfaceKey, LinkEntry> links_;  // by egress key
  std::map<net::Ipv4Address, AttachedHost> hosts_;
  // Fault plans by address: they outlive attach/detach cycles.
  std::map<net::Ipv4Address, HostFaultPlan> host_faults_;
  std::map<topology::AsNumber, unsigned> next_host_octet_;
  // Pinned paths, and shortest paths resolved on first send between two
  // ASes; pin_path overwrites either. A resolved path is a pure function
  // of the topology, so caching it never affects simulation results.
  mutable std::map<std::pair<topology::AsNumber, topology::AsNumber>,
                   std::shared_ptr<const topology::AsPath>>
      paths_;

  std::array<std::uint64_t, 4> sent_{};
  std::array<std::uint64_t, 4> delivered_{};
  std::array<std::uint64_t, 4> dropped_{};

  std::unique_ptr<FlightPool> flights_;

  // Observability handles, cached per protocol at construction (the obs
  // registry owns them; all record calls no-op while obs is disabled).
  struct ObsHandles {
    std::array<obs::Counter*, 4> sent{};
    std::array<obs::Counter*, 4> delivered{};
    std::array<obs::Counter*, 4> dropped{};
    obs::Histogram* link_delay_ms = nullptr;
    obs::Histogram* path_links = nullptr;
    obs::Counter* host_fault_egress_drops = nullptr;
    obs::Counter* host_fault_ingress_drops = nullptr;
    obs::Counter* ttl_expired = nullptr;
    obs::Counter* int_pushes = nullptr;
    obs::Counter* int_truncations = nullptr;
  };
  ObsHandles obs_;
  bool int_enabled_ = false;
};

/// Hashes a parsed packet's flow identity (5-tuple; protocol-dependent).
std::uint64_t flow_hash_of(const net::Packet& packet);

}  // namespace debuglet::simnet
