// Native measurement endpoints.
//
// These model the paper's Go applications (§II "Experiment Setup" and
// §V-B's A2A baseline): a probe client that sends equal-length probes of
// all four protocols once per second, and an echo server that reflects
// them. A configurable per-packet processing overhead models the cost of a
// sandboxed endpoint (Fig. 8's D2D/A2D/D2A combinations reuse these hosts
// with nonzero overhead).
#pragma once

#include <map>

#include "simnet/network.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace debuglet::simnet {

/// Reflects every probe back to its sender (UDP/TCP/ICMP/raw-IP echo).
class EchoServerHost : public Host {
 public:
  /// `processing_overhead` is added before each reply is sent (0 for a
  /// native server; ~100 µs for a sandboxed Debuglet server).
  EchoServerHost(SimulatedNetwork& network, net::Ipv4Address address,
                 SimDuration processing_overhead = 0,
                 double overhead_jitter_ns = 0.0, std::uint64_t seed = 1);

  void on_packet(const Delivery& delivery) override;

  net::Ipv4Address address() const { return address_; }
  std::uint64_t packets_echoed() const { return echoed_; }

 private:
  SimulatedNetwork& network_;
  net::Ipv4Address address_;
  SimDuration overhead_;
  double overhead_jitter_ns_;
  Rng rng_;
  std::uint64_t echoed_ = 0;
};

/// Per-protocol round-trip measurement results.
struct ProbeReport {
  std::map<net::Protocol, SampleSet> rtt_ms;
  std::map<net::Protocol, std::uint64_t> sent;
  std::map<net::Protocol, std::uint64_t> received;
  /// Time series of (send time s, RTT ms) per protocol, for figure benches.
  std::map<net::Protocol, Series> series;

  /// Loss rate in per mille for a protocol (paper Table I's ‰ column).
  double loss_per_mille(net::Protocol p) const;
};

/// Configuration of a probe run. A reply later than 2 s counts as lost.
struct ProbeClientConfig {
  net::Ipv4Address server;
  std::uint16_t server_port = 40000;
  SimDuration interval = duration::seconds(1);
  std::uint64_t probe_count = 60;  // probes per protocol
  std::vector<net::Protocol> protocols{net::kAllProtocols,
                                       net::kAllProtocols + 4};
  std::uint16_t equalized_length = 64;  // total L3 bytes, all protocols
  SimDuration processing_overhead = 0;   // sandbox cost at the client
  bool record_series = false;
};

/// Sends probes on a schedule and collects RTT/loss per protocol.
class ProbeClientHost : public Host {
 public:
  ProbeClientHost(SimulatedNetwork& network, net::Ipv4Address address,
                  ProbeClientConfig config, std::uint64_t seed);

  /// Schedules the full probe run starting at the queue's current time.
  void start();

  void on_packet(const Delivery& delivery) override;

  /// Final report; call after the event queue has drained (outstanding
  /// probes are counted as lost).
  const ProbeReport& report();

  net::Ipv4Address address() const { return address_; }

 private:
  void send_round(std::uint64_t round);
  void send_probe(net::Protocol protocol, std::uint64_t round);

  SimulatedNetwork& network_;
  net::Ipv4Address address_;
  ProbeClientConfig config_;
  Rng rng_;
  ProbeReport report_;
  struct Outstanding {
    SimTime sent_at;
    std::uint64_t round;
  };
  std::map<std::pair<net::Protocol, std::uint16_t>, Outstanding> outstanding_;
  std::uint16_t next_client_port_ = 41000;
  bool finalized_ = false;
};

/// Per-hop findings of a traceroute run.
struct TracerouteHop {
  std::uint8_t ttl = 0;
  bool responded = false;
  net::Ipv4Address responder;   // border-router address when responded
  SampleSet rtt_ms;             // over the probes that were answered
  std::uint32_t probes_sent = 0;
};

struct TracerouteReport {
  std::vector<TracerouteHop> hops;
  bool reached_destination = false;

  /// Fraction of hops that never responded (disabled / rate-limited).
  double silent_hop_fraction() const;
};

/// Configuration of a traceroute run (UDP probes to port 33434 with
/// increasing TTL, the classic tool the paper's §II critiques).
struct TracerouteConfig {
  net::Ipv4Address destination;
  std::uint8_t max_ttl = 16;
  std::uint32_t probes_per_ttl = 3;
};

/// The baseline: a traceroute prober. Sends probes_per_ttl probes at each
/// TTL, matches ICMP time-exceeded replies by the echoed identification,
/// and records per-hop responder addresses and RTTs. Stops early once the
/// destination echoes back.
class TracerouteProber : public Host {
 public:
  TracerouteProber(SimulatedNetwork& network, net::Ipv4Address address,
                   TracerouteConfig config, std::uint64_t seed);

  void start();
  void on_packet(const Delivery& delivery) override;

  /// Final report; call after the event queue has drained.
  const TracerouteReport& report() const { return report_; }

  net::Ipv4Address address() const { return address_; }

 private:
  void send_probe(std::uint8_t ttl, std::uint32_t attempt);

  SimulatedNetwork& network_;
  net::Ipv4Address address_;
  TracerouteConfig config_;
  Rng rng_;
  TracerouteReport report_;
  std::map<std::uint16_t, std::pair<std::uint8_t, SimTime>> outstanding_;
  std::uint16_t next_ident_ = 1;
  bool destination_seen_ = false;
};

}  // namespace debuglet::simnet
