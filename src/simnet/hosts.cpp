#include "simnet/hosts.hpp"

#include <cmath>

#include "util/log.hpp"

namespace debuglet::simnet {

namespace {

// A probe reply later than this counts as lost.
constexpr SimDuration kRttTimeout = duration::seconds(2);

// The traceroute probe train: the classic UDP base port, the pacing
// between consecutive probes, and how late a reply may still count.
constexpr std::uint16_t kTraceroutePort = 33434;
constexpr SimDuration kTracerouteProbeInterval = duration::milliseconds(50);
constexpr SimDuration kTracerouteReplyTimeout = duration::milliseconds(1500);

}  // namespace

EchoServerHost::EchoServerHost(SimulatedNetwork& network,
                               net::Ipv4Address address,
                               SimDuration processing_overhead,
                               double overhead_jitter_ns, std::uint64_t seed)
    : network_(network),
      address_(address),
      overhead_(processing_overhead),
      overhead_jitter_ns_(overhead_jitter_ns),
      rng_(seed) {}

void EchoServerHost::on_packet(const Delivery& delivery) {
  auto reply = net::build_echo_reply(delivery.packet);
  if (!reply) {
    DEBUGLET_LOG(kWarn, "echo") << "cannot reply: " << reply.error_message();
    return;
  }
  ++echoed_;
  SimDuration overhead = overhead_;
  if (overhead_jitter_ns_ > 0.0)
    overhead += static_cast<SimDuration>(
        std::abs(rng_.normal(0.0, overhead_jitter_ns_)));
  Bytes wire = std::move(*reply);
  network_.queue().schedule_after(
      overhead, [this, wire = std::move(wire)]() mutable {
        auto status = network_.send(address_, std::move(wire));
        if (!status)
          DEBUGLET_LOG(kWarn, "echo") << "send: " << status.error_message();
      });
}

double ProbeReport::loss_per_mille(net::Protocol p) const {
  auto sent_it = sent.find(p);
  if (sent_it == sent.end() || sent_it->second == 0) return 0.0;
  const auto recv_it = received.find(p);
  const std::uint64_t got = recv_it == received.end() ? 0 : recv_it->second;
  return 1000.0 *
         static_cast<double>(sent_it->second - got) /
         static_cast<double>(sent_it->second);
}

ProbeClientHost::ProbeClientHost(SimulatedNetwork& network,
                                 net::Ipv4Address address,
                                 ProbeClientConfig config, std::uint64_t seed)
    : network_(network),
      address_(address),
      config_(std::move(config)),
      rng_(seed) {
  for (net::Protocol p : config_.protocols) {
    report_.rtt_ms[p];
    report_.sent[p] = 0;
    report_.received[p] = 0;
    if (config_.record_series)
      report_.series[p].label = net::protocol_name(p);
  }
}

void ProbeClientHost::start() { send_round(0); }

void ProbeClientHost::send_round(std::uint64_t round) {
  if (round >= config_.probe_count) return;
  for (net::Protocol protocol : config_.protocols)
    send_probe(protocol, round);
  // Self-timers are homed on the host's own domain, like its deliveries,
  // so the sends draw from that domain's streams and skip the
  // cross-domain clamp.
  network_.queue().schedule_on(
      network_.domain_of(address_), network_.now() + config_.interval,
      [this, round] { send_round(round + 1); });
}

void ProbeClientHost::send_probe(net::Protocol protocol, std::uint64_t round) {
  net::ProbeSpec spec;
  spec.protocol = protocol;
  spec.source = address_;
  spec.destination = config_.server;
  spec.source_port = next_client_port_;
  spec.destination_port = config_.server_port;
  spec.sequence = static_cast<std::uint16_t>(round);
  spec.tcp_sequence = static_cast<std::uint32_t>(rng_.next_u64());
  spec.equalized_length = config_.equalized_length;
  // Probe payload convention (shared with the DVM Debuglets): bytes [0,8)
  // carry the sequence number, [8,16) the send timestamp. Echo servers of
  // either kind preserve the payload, so replies match by content even
  // when an intermediary rewrites IP-level fields.
  {
    BytesWriter payload;
    payload.u64(round);
    payload.i64(network_.now());
    spec.payload = payload.take();
  }
  auto wire = net::build_probe(spec);
  if (!wire) {
    DEBUGLET_LOG(kError, "probe") << "build: " << wire.error_message();
    return;
  }

  ++report_.sent[protocol];
  const auto key = std::make_pair(protocol, spec.sequence);
  // The application's clock starts when it initiates the probe, so any
  // sandbox processing overhead before the packet hits the wire is part of
  // the measured RTT (exactly what Fig. 8 quantifies).
  outstanding_[key] = Outstanding{network_.now(), round};
  network_.queue().schedule_on(
      network_.domain_of(address_),
      network_.now() + config_.processing_overhead,
      [this, wire = std::move(*wire)]() mutable {
        auto status = network_.send(address_, std::move(wire));
        if (!status)
          DEBUGLET_LOG(kError, "probe") << "send: " << status.error_message();
      });
}

void ProbeClientHost::on_packet(const Delivery& delivery) {
  const net::Packet& pkt = delivery.packet;
  // Match replies by the sequence number embedded in the echoed payload.
  if (pkt.payload.size() < 8) return;
  BytesReader reader(BytesView(pkt.payload.data(), pkt.payload.size()));
  const auto seq = reader.u64();
  if (!seq) return;
  const auto key =
      std::make_pair(pkt.protocol, static_cast<std::uint16_t>(*seq));
  auto it = outstanding_.find(key);
  if (it == outstanding_.end()) return;  // duplicate or late beyond reuse
  const SimDuration rtt = delivery.received_at - it->second.sent_at;
  if (rtt <= kRttTimeout) {
    ++report_.received[pkt.protocol];
    report_.rtt_ms[pkt.protocol].add(duration::to_ms(rtt));
    if (config_.record_series) {
      Series& s = report_.series[pkt.protocol];
      s.times_s.push_back(duration::to_seconds(it->second.sent_at));
      s.values.push_back(duration::to_ms(rtt));
    }
  }
  outstanding_.erase(it);
}

const ProbeReport& ProbeClientHost::report() {
  if (!finalized_) {
    finalized_ = true;
    outstanding_.clear();  // anything unanswered counts as lost
  }
  return report_;
}

double TracerouteReport::silent_hop_fraction() const {
  if (hops.empty()) return 0.0;
  std::size_t silent = 0;
  for (const TracerouteHop& hop : hops) silent += hop.responded ? 0 : 1;
  return static_cast<double>(silent) / static_cast<double>(hops.size());
}

TracerouteProber::TracerouteProber(SimulatedNetwork& network,
                                   net::Ipv4Address address,
                                   TracerouteConfig config, std::uint64_t seed)
    : network_(network),
      address_(address),
      config_(config),
      rng_(seed) {}

void TracerouteProber::start() {
  report_.hops.clear();
  report_.hops.resize(config_.max_ttl);
  for (std::uint8_t ttl = 1; ttl <= config_.max_ttl; ++ttl)
    report_.hops[ttl - 1].ttl = ttl;
  // Schedule the whole probe train up front; replies arrive as they may.
  // Probe events are homed on the prober's domain, like its deliveries.
  const SimTime base = network_.now();
  SimDuration offset = 0;
  for (std::uint8_t ttl = 1; ttl <= config_.max_ttl; ++ttl) {
    for (std::uint32_t attempt = 0; attempt < config_.probes_per_ttl;
         ++attempt) {
      network_.queue().schedule_on(
          network_.domain_of(address_), base + offset,
          [this, ttl, attempt] { send_probe(ttl, attempt); });
      offset += kTracerouteProbeInterval;
    }
  }
}

void TracerouteProber::send_probe(std::uint8_t ttl, std::uint32_t) {
  if (destination_seen_ && ttl > 0) {
    // Classic traceroute stops probing past a responding destination.
    bool past_destination = false;
    for (const TracerouteHop& hop : report_.hops)
      if (hop.responded && hop.responder == config_.destination &&
          ttl > hop.ttl)
        past_destination = true;
    if (past_destination) return;
  }
  const std::uint16_t ident = next_ident_++;
  net::ProbeSpec spec;
  spec.protocol = net::Protocol::kUdp;
  spec.source = address_;
  spec.destination = config_.destination;
  spec.source_port = 33000;
  spec.destination_port = kTraceroutePort;
  spec.sequence = ident;  // echoed back by time-exceeded and echo replies
  spec.ttl = ttl;
  spec.tcp_sequence = static_cast<std::uint32_t>(rng_.next_u64());
  BytesWriter payload;
  payload.u64(ident);
  payload.i64(network_.now());
  spec.payload = payload.take();
  auto wire = net::build_probe(spec);
  if (!wire) return;
  report_.hops[ttl - 1].probes_sent++;
  outstanding_[ident] = {ttl, network_.now()};
  (void)network_.send(address_, std::move(*wire));
}

void TracerouteProber::on_packet(const Delivery& delivery) {
  const net::Packet& pkt = delivery.packet;
  std::uint16_t ident = 0;
  bool from_destination = false;
  if (pkt.protocol == net::Protocol::kIcmp && pkt.icmp &&
      pkt.icmp->type == net::kIcmpTimeExceeded) {
    ident = pkt.ip.identification;
  } else if (pkt.ip.source == config_.destination) {
    // An echo (or any reply) from the destination itself.
    ident = pkt.ip.identification;
    from_destination = true;
  } else {
    return;
  }
  auto it = outstanding_.find(ident);
  if (it == outstanding_.end()) return;
  const auto [ttl, sent_at] = it->second;
  outstanding_.erase(it);
  const SimDuration rtt = delivery.received_at - sent_at;
  if (rtt > kTracerouteReplyTimeout) return;  // too late, counted silent
  TracerouteHop& hop = report_.hops[ttl - 1];
  hop.responded = true;
  hop.responder = pkt.ip.source;
  hop.rtt_ms.add(duration::to_ms(rtt));
  if (from_destination) {
    destination_seen_ = true;
    report_.reached_destination = true;
  }
}

}  // namespace debuglet::simnet
