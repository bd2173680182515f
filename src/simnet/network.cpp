#include "simnet/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/log.hpp"

namespace debuglet::simnet {

namespace {

// Per-domain RNG stream labels. Each domain's bundle forks purely from
// the scenario seed and the domain number, never from traffic-dependent
// state, so equal-seed runs draw identical streams.
constexpr std::uint64_t kTransitRngSalt = 0x7A4E517ULL;
constexpr std::uint64_t kAccessRngSalt = 0xACCE55ULL;
constexpr std::uint64_t kIcmpRngSalt = 0x1C3BULL;
constexpr std::uint64_t kMiddleboxRngSalt = 0xD71B0CULL;

// Total duplication fan-out bound per original packet. The budget rides
// with each copy and halves on every fork, so the bound holds no matter
// which hop mints the copies.
constexpr int kMaxCopies = 16;

std::uint32_t clamp_u32(std::uint64_t v) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(v, 0xFFFFFFFFULL));
}

}  // namespace

std::uint64_t flow_hash_of(const net::Packet& packet) {
  // FNV-1a over the 5-tuple, each field as 8 little-endian bytes.
  std::uint64_t h = kFnv1aBasis;
  auto mix = [&h](std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (i * 8));
    h = fnv1a(le, h);
  };
  mix(packet.ip.source.value);
  mix(packet.ip.destination.value);
  mix(packet.ip.protocol);
  std::uint16_t sport = 0, dport = 0;
  if (packet.udp) {
    sport = packet.udp->source_port;
    dport = packet.udp->destination_port;
  } else if (packet.tcp) {
    sport = packet.tcp->source_port;
    dport = packet.tcp->destination_port;
  }
  mix(static_cast<std::uint64_t>(sport) << 16 | dport);
  return h;
}

/// One in-flight copy of a frame, moved hop by hop through raw events.
/// `packet.ip.ttl` keeps the as-sent value until the final hop (ICMP
/// time-exceeded quotes the original header); `ttl` tracks the live
/// decrementing value.
struct SimulatedNetwork::FlightCopy {
  SimulatedNetwork* net = nullptr;
  std::shared_ptr<const topology::AsPath> path;
  net::Packet packet;
  Bytes wire;
  SimTime sent_at = 0;
  net::Protocol protocol = net::Protocol::kUdp;
  std::uint64_t flow = 0;
  double delay_ms = 0.0;  // cumulative since sent_at, at entry of next_link
  std::size_t next_link = 0;
  std::uint8_t ttl = 0;
  int dup_budget = 0;
  LinkEntry* link = nullptr;  // the link crossed at the next hop event
  /// The INT stack of a packet that opted in; records are appended as
  /// hops are crossed.
  std::optional<telemetry::IntHeader> int_header;
  std::vector<WireDamage> damages;
  Host* deliver_host = nullptr;  // captured at arrival, checked at delivery

  /// Writes the INT stack over the payload prefix it was parsed from and
  /// re-serializes the wire bytes (nothing to do without INT).
  void splice_int() {
    if (!int_header) return;
    const Bytes block = int_header->serialize();
    if (block.size() <= packet.payload.size())
      std::copy(block.begin(), block.end(), packet.payload.begin());
    auto rewired = net::serialize_packet(packet);
    if (rewired) wire = std::move(*rewired);
  }
};

struct SimulatedNetwork::FlightPool {
  std::vector<std::unique_ptr<FlightCopy>> all;  // owns every node
  std::vector<FlightCopy*> free_list;

  FlightCopy* acquire() {
    if (!free_list.empty()) {
      FlightCopy* fc = free_list.back();
      free_list.pop_back();
      return fc;
    }
    all.push_back(std::make_unique<FlightCopy>());
    return all.back().get();
  }

  void release(FlightCopy* fc) {
    // Drop per-packet state but keep buffer capacity for reuse.
    fc->path.reset();
    fc->packet = net::Packet{};
    fc->wire.clear();
    fc->damages.clear();
    fc->int_header.reset();
    fc->deliver_host = nullptr;
    free_list.push_back(fc);
  }
};

SimulatedNetwork::SimulatedNetwork(EventQueue& queue,
                                   topology::Topology topology,
                                   std::uint64_t seed)
    : queue_(queue),
      topology_(std::move(topology)),
      rng_(seed),
      seed_(seed),
      flights_(std::make_unique<FlightPool>()) {
  obs::MetricsRegistry& reg = obs::registry();
  for (net::Protocol p : net::kAllProtocols) {
    const obs::Labels labels{{"proto", net::protocol_name(p)}};
    obs_.sent[proto_index(p)] = &reg.counter("simnet.packets_sent", labels);
    obs_.delivered[proto_index(p)] =
        &reg.counter("simnet.packets_delivered", labels);
    obs_.dropped[proto_index(p)] =
        &reg.counter("simnet.packets_dropped", labels);
  }
  obs_.link_delay_ms = &reg.histogram("simnet.link.delay_ms");
  obs_.path_links = &reg.histogram("simnet.path_links");
  obs_.host_fault_egress_drops =
      &reg.counter("simnet.host_fault_drops", {{"side", "egress"}});
  obs_.host_fault_ingress_drops =
      &reg.counter("simnet.host_fault_drops", {{"side", "ingress"}});
  obs_.ttl_expired = &reg.counter("net.ttl_expired");
  obs_.int_pushes = &reg.counter("telemetry.int_pushes");
  obs_.int_truncations = &reg.counter("telemetry.int_truncations");

  // One record for the control domain and one per AS (the topology
  // rejects AS 0), up front: the map is immutable once events run.
  auto add_record = [this](std::uint32_t d) {
    AsRecord& as = records_[d];
    const std::uint64_t salt = static_cast<std::uint64_t>(d) << 20;
    as.transit_rng = Rng(seed_).fork(kTransitRngSalt ^ salt);
    as.access_rng = Rng(seed_).fork(kAccessRngSalt ^ salt);
    as.icmp_rng = Rng(seed_).fork(kIcmpRngSalt ^ salt);
    as.middlebox_rng = Rng(seed_).fork(kMiddleboxRngSalt ^ salt);
  };
  add_record(EventQueue::kControlDomain);
  for (topology::AsNumber asn : topology_.as_numbers()) add_record(asn);
}

SimulatedNetwork::~SimulatedNetwork() = default;

SimulatedNetwork::AsRecord* SimulatedNetwork::find_record(
    std::uint32_t domain) {
  auto it = records_.find(domain);
  return it != records_.end() ? &it->second : nullptr;
}

SimulatedNetwork::AsRecord& SimulatedNetwork::current_record() {
  // A domain outside the topology (a host at an unknown AS) shares the
  // control record, which sorts first.
  AsRecord* as = find_record(queue_.current_domain());
  return as != nullptr ? *as : records_.begin()->second;
}

SimulatedNetwork::LinkEntry* SimulatedNetwork::find_link(
    topology::InterfaceKey from, topology::InterfaceKey to) {
  auto it = links_.find(from);
  if (it == links_.end() || it->second.to != to) return nullptr;
  return &it->second;
}

const SimulatedNetwork::LinkEntry* SimulatedNetwork::find_link(
    topology::InterfaceKey from, topology::InterfaceKey to) const {
  return const_cast<SimulatedNetwork*>(this)->find_link(from, to);
}

Status SimulatedNetwork::configure_link(topology::InterfaceKey from,
                                        topology::InterfaceKey to,
                                        LinkConfig config) {
  auto remote = topology_.remote_of(from);
  if (!remote) return remote.error();
  if (*remote != to)
    return fail("link " + from.to_string() + " does not reach " +
                to.to_string());
  auto model = std::make_unique<LinkModel>(std::move(config), rng_.fork(
      (static_cast<std::uint64_t>(from.asn) << 32) ^
      (static_cast<std::uint64_t>(from.interface) << 16) ^ to.asn ^
      (static_cast<std::uint64_t>(to.interface) << 48)));
  // The link's latency floor bounds how fast anything can cross it; the
  // smallest floor over all links sets the queue's cross-domain lookahead.
  queue_.note_link_floor(duration::from_ms(model->floor_ms()));
  AsRecord* ingress = &records_.at(to.asn);
  links_.insert_or_assign(from, LinkEntry{to, std::move(model), ingress});
  return ok_status();
}

Status SimulatedNetwork::configure_link_symmetric(topology::InterfaceKey a,
                                                  topology::InterfaceKey b,
                                                  LinkConfig config) {
  auto s1 = configure_link(a, b, config);
  if (!s1) return s1;
  return configure_link(b, a, config);
}

void SimulatedNetwork::configure_transit(topology::AsNumber asn,
                                         TransitConfig config) {
  if (AsRecord* as = find_record(asn)) as->transit = config;
}

void SimulatedNetwork::configure_icmp_policy(topology::AsNumber asn,
                                             IcmpReplyPolicy policy) {
  if (AsRecord* as = find_record(asn)) as->icmp_policy = policy;
}

Status SimulatedNetwork::attach_host(net::Ipv4Address address, Host* host,
                                     AccessConfig access) {
  if (host == nullptr) return fail("attach_host: null host");
  if (!hosts_.emplace(address, AttachedHost{host, access}).second)
    return fail("host already attached at " + address.to_string());
  return ok_status();
}

void SimulatedNetwork::detach_host(net::Ipv4Address address) {
  hosts_.erase(address);
}

net::Ipv4Address SimulatedNetwork::allocate_host_address(
    topology::AsNumber asn) {
  unsigned& next = next_host_octet_[asn];
  if (next == 0) next = topology::kFirstHostOctet;
  if (next > 255)
    throw std::out_of_range("no host address left in AS" +
                            std::to_string(asn));
  return net::Ipv4Address(10, static_cast<std::uint8_t>(asn >> 8),
                          static_cast<std::uint8_t>(asn),
                          static_cast<std::uint8_t>(next++));
}

topology::AsNumber SimulatedNetwork::as_of(net::Ipv4Address address) const {
  return static_cast<topology::AsNumber>((address.value >> 8) & 0xFFFF);
}

std::uint32_t SimulatedNetwork::domain_of(net::Ipv4Address address) const {
  const bool host = (address.value & 0xFF) >= topology::kFirstHostOctet;
  return host ? as_of(address) : EventQueue::kControlDomain;
}

Result<std::shared_ptr<const topology::AsPath>> SimulatedNetwork::resolve_path(
    topology::AsNumber src, topology::AsNumber dst) const {
  if (auto it = paths_.find({src, dst}); it != paths_.end())
    return it->second;
  auto path = topology_.shortest_path(src, dst);
  if (!path) return fail(path.error_message());
  auto shared = std::make_shared<const topology::AsPath>(std::move(*path));
  paths_.emplace(std::pair{src, dst}, shared);
  return shared;
}

void SimulatedNetwork::pin_path(topology::AsNumber src, topology::AsNumber dst,
                                topology::AsPath path) {
  paths_[{src, dst}] =
      std::make_shared<const topology::AsPath>(std::move(path));
}

Status SimulatedNetwork::inject_fault(topology::InterfaceKey from,
                                      topology::InterfaceKey to,
                                      const FaultSpec& fault) {
  LinkEntry* entry = find_link(from, to);
  if (entry == nullptr)
    return fail("no configured link " + from.to_string() + " -> " +
                to.to_string());
  entry->model->inject_fault(fault);
  return ok_status();
}

Status SimulatedNetwork::clear_fault(topology::InterfaceKey from,
                                     topology::InterfaceKey to) {
  LinkEntry* entry = find_link(from, to);
  if (entry == nullptr)
    return fail("no configured link " + from.to_string() + " -> " +
                to.to_string());
  entry->model->clear_fault();
  return ok_status();
}

Status SimulatedNetwork::install_link_faults(topology::InterfaceKey from,
                                             topology::InterfaceKey to,
                                             LinkFaultPlan plan) {
  LinkEntry* entry = find_link(from, to);
  if (entry == nullptr)
    return fail("no configured link " + from.to_string() + " -> " +
                to.to_string());
  // The fault stream forks from the scenario seed and the link identity
  // alone (never from rng_, whose state depends on traffic so far), so
  // equal-seed runs damage identically no matter when plans are installed.
  const std::uint64_t label = (static_cast<std::uint64_t>(from.asn) << 32) ^
                              (static_cast<std::uint64_t>(from.interface)
                               << 16) ^
                              to.asn ^
                              (static_cast<std::uint64_t>(to.interface) << 48);
  entry->model->install_fault_plan(std::move(plan),
                                   Rng(seed_).fork(label ^ 0xFA177ULL));
  return ok_status();
}

Status SimulatedNetwork::clear_link_faults(topology::InterfaceKey from,
                                           topology::InterfaceKey to) {
  LinkEntry* entry = find_link(from, to);
  if (entry == nullptr)
    return fail("no configured link " + from.to_string() + " -> " +
                to.to_string());
  entry->model->clear_fault_plan();
  return ok_status();
}

LinkIntegrityStats SimulatedNetwork::link_integrity(
    topology::InterfaceKey from, topology::InterfaceKey to) const {
  const LinkEntry* entry = find_link(from, to);
  return entry == nullptr ? LinkIntegrityStats{} : entry->model->integrity();
}

Status SimulatedNetwork::install_host_faults(net::Ipv4Address address,
                                             HostFaultPlan plan) {
  if (!topology_.has_as(as_of(address)))
    return fail("install_host_faults: AS of " + address.to_string() +
                " unknown");
  host_faults_.insert_or_assign(address, std::move(plan));
  return ok_status();
}

Status SimulatedNetwork::install_host_faults(topology::InterfaceKey key,
                                             HostFaultPlan plan) {
  if (!topology_.has_as(key.asn))
    return fail("install_host_faults: AS" + std::to_string(key.asn) +
                " unknown");
  return install_host_faults(topology_.address_of(key), std::move(plan));
}

void SimulatedNetwork::clear_host_faults(net::Ipv4Address address) {
  host_faults_.erase(address);
}

HostFaultState SimulatedNetwork::host_fault_state(net::Ipv4Address address,
                                                  SimTime t) const {
  auto it = host_faults_.find(address);
  return it == host_faults_.end() ? HostFaultState{} : it->second.state_at(t);
}

Status SimulatedNetwork::install_middlebox(topology::AsNumber asn,
                                           MiddleboxPlan plan) {
  if (!topology_.has_as(asn))
    return fail("install_middlebox: AS" + std::to_string(asn) + " unknown");
  MiddleboxEntry entry;
  entry.plan = std::move(plan);
  // Obs handles resolve once here; the hop path only bumps them.
  obs::MetricsRegistry& reg = obs::registry();
  const std::string asn_label = std::to_string(asn);
  for (std::size_t i = 0; i < kTrafficClassCount; ++i)
    entry.classified[i] = &reg.counter(
        "simnet.middlebox.classified",
        {{"class", traffic_class_name(static_cast<TrafficClass>(i))},
         {"asn", asn_label}});
  entry.dropped =
      &reg.counter("simnet.middlebox.dropped", {{"asn", asn_label}});
  entry.deprioritized =
      &reg.counter("simnet.middlebox.deprioritized", {{"asn", asn_label}});
  entry.mangled =
      &reg.counter("simnet.middlebox.mangled", {{"asn", asn_label}});
  entry.throttled =
      &reg.counter("simnet.middlebox.throttled", {{"asn", asn_label}});
  entry.exempted =
      &reg.counter("simnet.middlebox.exempted", {{"asn", asn_label}});
  entry.adaptive_matched = &reg.counter("simnet.middlebox.adaptive_matched",
                                        {{"asn", asn_label}});
  entry.adaptive_promoted = &reg.counter("simnet.middlebox.adaptive_promoted",
                                         {{"asn", asn_label}});
  entry.flows_evicted =
      &reg.counter("simnet.middlebox.flows_evicted", {{"asn", asn_label}});
  records_.at(asn).middlebox = std::move(entry);
  return ok_status();
}

void SimulatedNetwork::clear_middlebox(topology::AsNumber asn) {
  if (AsRecord* as = find_record(asn)) as->middlebox.reset();
}

MiddleboxStats SimulatedNetwork::middlebox_stats(topology::AsNumber asn)
    const {
  auto it = records_.find(asn);
  return it != records_.end() ? it->second.mb_stats : MiddleboxStats{};
}

LinkModel* SimulatedNetwork::link_model(topology::InterfaceKey from,
                                        topology::InterfaceKey to) {
  LinkEntry* entry = find_link(from, to);
  return entry == nullptr ? nullptr : entry->model.get();
}

NetworkStats SimulatedNetwork::stats() const {
  NetworkStats out;
  for (net::Protocol p : net::kAllProtocols) {
    const std::size_t i = proto_index(p);
    if (sent_[i] != 0) out.sent[p] = sent_[i];
    if (delivered_[i] != 0) out.delivered[p] = delivered_[i];
    if (dropped_[i] != 0) out.dropped[p] = dropped_[i];
  }
  return out;
}

void SimulatedNetwork::count_drop(net::Protocol protocol) {
  ++dropped_[proto_index(protocol)];
  obs_.dropped[proto_index(protocol)]->add();
  current_record().drops += 1;
}

Result<double> SimulatedNetwork::expected_path_delay_ms(
    const topology::AsPath& path, net::Protocol protocol) const {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.hops.size(); ++i) {
    const auto [from, to] = path.link_after(i);
    const LinkEntry* entry = find_link(from, to);
    if (entry == nullptr)
      return fail("unconfigured link " + from.to_string() + " -> " +
                  to.to_string());
    total += entry->model->expected_delay_ms(protocol, queue_.now());
  }
  // Every interior hop ends a configured link, so it is a topology AS.
  for (std::size_t i = 1; i + 1 < path.hops.size(); ++i)
    total += records_.at(path.hops[i].asn).transit.delay_ms;
  return total;
}

void SimulatedNetwork::expire_with_time_exceeded(
    const net::Packet& packet, topology::InterfaceKey router, SimTime sent_at,
    double forward_delay_ms, AsRecord& as) {
  const IcmpReplyPolicy& policy = as.icmp_policy;
  if (!policy.time_exceeded_enabled) return;

  // Token-bucket-per-second rate limiting across the whole AS. The
  // counter lives in the AS's own record — this runs on the hop event of
  // the expiring border router, which that domain owns.
  if (policy.rate_limit_per_s > 0) {
    const std::int64_t second = queue_.now() / 1'000'000'000;
    if (as.icmp_window_second != second) {
      as.icmp_window_second = second;
      as.icmp_sent_in_window = 0;
    }
    if (as.icmp_sent_in_window >= policy.rate_limit_per_s) return;
    ++as.icmp_sent_in_window;
  }

  const net::Ipv4Address router_address = topology_.address_of(router);
  auto reply = net::build_time_exceeded(packet, router_address);
  if (!reply) return;

  // The reply is generated on the SLOW PATH after the probe's forward
  // delay, then travels back through the regular network (so it sees
  // reverse-path treatment too — one of the biases the paper calls out).
  // The send itself is homed on the router's domain (the control plane:
  // border addresses) so its draws come from that domain's streams.
  double delay_ms = forward_delay_ms + policy.slow_path_ms;
  if (policy.slow_path_jitter_ms > 0.0)
    delay_ms += std::abs(as.icmp_rng.normal(0.0, policy.slow_path_jitter_ms));
  queue_.schedule_on(
      EventQueue::kControlDomain,
      sent_at + duration::from_ms(std::max(delay_ms, 0.0)),
      [this, router_address, wire = std::move(*reply)]() mutable {
        auto status = send(router_address, std::move(wire));
        if (!status)
          DEBUGLET_LOG(kDebug, "simnet")
              << "time-exceeded send: " << status.error_message();
      });
}

Status SimulatedNetwork::send(net::Ipv4Address from_address, Bytes wire) {
  auto parsed = net::parse_packet(BytesView(wire.data(), wire.size()));
  if (!parsed) return fail("send: " + parsed.error_message());
  net::Packet packet = std::move(*parsed);
  if (packet.ip.source != from_address)
    return fail("send: IP source " + packet.ip.source.to_string() +
                " does not match sender " + from_address.to_string());

  const topology::AsNumber src_as = as_of(from_address);
  const topology::AsNumber dst_as = as_of(packet.ip.destination);
  if (!topology_.has_as(src_as))
    return fail("send: source AS" + std::to_string(src_as) + " unknown");
  if (!topology_.has_as(dst_as))
    return fail("send: destination AS" + std::to_string(dst_as) + " unknown");

  auto path_result = resolve_path(src_as, dst_as);
  if (!path_result) return fail("send: " + path_result.error_message());
  std::shared_ptr<const topology::AsPath> path = *path_result;

  const net::Protocol protocol = packet.protocol;
  const std::uint64_t flow = flow_hash_of(packet);
  ++sent_[proto_index(protocol)];
  obs_.sent[proto_index(protocol)]->add();
  obs_.path_links->record(static_cast<double>(path->hops.size()) - 1.0);

  const SimTime sent_at = queue_.now();

  // In-band telemetry: one branch when off. A packet opts in by carrying
  // a parseable IntHeader as its payload prefix (UDP/raw-IP only — the
  // other transports' checksums cover the payload, so a forwarding device
  // must not rewrite them). Malformed INT forwards untouched as an
  // ordinary opaque payload.
  std::optional<telemetry::IntHeader> int_header;
  if (int_enabled_ &&
      (protocol == net::Protocol::kUdp ||
       protocol == net::Protocol::kRawIp) &&
      telemetry::IntHeader::looks_like_int(
          BytesView(packet.payload.data(), packet.payload.size()))) {
    auto parsed_int = telemetry::IntHeader::parse(
        BytesView(packet.payload.data(), packet.payload.size()));
    if (parsed_int) int_header = std::move(*parsed_int);
  }

  // Host-level faults (chaos layer): a crashed sender is off and a
  // silenced one never gets its packets onto the wire. Either way the
  // packet is lost silently — not an error, exactly like dead hardware.
  const HostFaultState sender_state = host_fault_state(from_address, sent_at);
  if (sender_state.crashed() || sender_state.silent()) {
    count_drop(protocol);
    obs_.host_fault_egress_drops->add();
    return ok_status();
  }
  // A slow sender pays its service delay before the wire.
  double pre_wire_ms = sender_state.extra_delay_ms;

  // The sender's intra-AS access stub (zero for border-router hosts). The
  // jitter draw comes from the executing domain's stream — sends run on
  // the sender's home domain (hosts schedule their timers there).
  if (auto it = hosts_.find(from_address); it != hosts_.end()) {
    const AccessConfig& access = it->second.access;
    double d = access.delay_ms;
    if (access.jitter_ms > 0.0)
      d += current_record().access_rng.normal(0.0, access.jitter_ms);
    pre_wire_ms += std::max(d, 0.0);
  }

  // The walk is asynchronous from here on; surface unconfigured links now
  // (the classic inline walk failed on the first such crossing).
  const auto& hops = path->hops;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const auto [from, to] = path->link_after(i);
    if (find_link(from, to) == nullptr)
      return fail("send: unconfigured link " + from.to_string() + " -> " +
                  to.to_string());
  }

  FlightCopy* fc = flights_->acquire();
  fc->net = this;
  fc->path = path;
  fc->packet = std::move(packet);
  fc->wire = std::move(wire);
  fc->sent_at = sent_at;
  fc->protocol = protocol;
  fc->flow = flow;
  fc->delay_ms = pre_wire_ms;
  fc->next_link = 0;
  fc->ttl = fc->packet.ip.ttl;
  fc->dup_budget = kMaxCopies - 1;
  fc->int_header = std::move(int_header);

  if (hops.size() == 1) {
    // Same-AS delivery: no inter-domain links, straight to the receiver.
    fc->splice_int();
    schedule_arrival(fc);
    return ok_status();
  }

  // First crossing: homed on the link's ingress AS, timed at the midpoint
  // of the link's latency floor so both event edges clear the queue's
  // cross-domain lookahead (which is half the smallest floor).
  const auto [from0, to0] = path->link_after(0);
  LinkEntry* first = find_link(from0, to0);
  fc->link = first;
  queue_.schedule_raw_on(
      hops[1].asn,
      sent_at + duration::from_ms(pre_wire_ms + first->model->floor_ms() * 0.5),
      &SimulatedNetwork::hop_event, fc);
  return ok_status();
}

void SimulatedNetwork::hop_event(void* arg) {
  FlightCopy* fc = static_cast<FlightCopy*>(arg);
  fc->net->process_hop(fc);
}

void SimulatedNetwork::arrival_event(void* arg) {
  FlightCopy* fc = static_cast<FlightCopy*>(arg);
  fc->net->process_arrival(fc);
}

void SimulatedNetwork::delivery_event(void* arg) {
  FlightCopy* fc = static_cast<FlightCopy*>(arg);
  fc->net->process_delivery(fc);
}

void SimulatedNetwork::push_int_record(FlightCopy* fc,
                                       const topology::PathHop& hop,
                                       bool interior, double link_delay_ms,
                                       double residence_ms,
                                       double delay_at_entry_ms,
                                       std::uint32_t queue_depth,
                                       std::uint32_t wire_faults,
                                       const AsRecord& as) {
  telemetry::HopRecord rec;
  rec.asn = hop.asn;
  rec.ingress_interface = hop.ingress;
  rec.egress_interface = interior ? hop.egress : 0;
  rec.ingress_ns =
      fc->sent_at + duration::from_ms(delay_at_entry_ms + link_delay_ms);
  rec.egress_ns = rec.ingress_ns + duration::from_ms(residence_ms);
  rec.queue_depth = queue_depth;
  rec.drops_seen = clamp_u32(as.drops);
  rec.wire_faults = wire_faults;
  if (fc->int_header->push(rec))
    obs_.int_pushes->add();
  else
    obs_.int_truncations->add();
}

void SimulatedNetwork::process_hop(FlightCopy* fc) {
  const topology::AsPath& path = *fc->path;
  const std::size_t k = fc->next_link;
  const LinkEntry& entry = *fc->link;
  LinkModel& link = *entry.model;
  const TraverseOutcome out = link.traverse(
      fc->protocol, fc->flow, fc->sent_at, fc->packet.ip.source,
      fc->packet.ip.destination, fc->packet.ip.total_length);
  if (out.copies.empty()) {
    count_drop(fc->protocol);
    flights_->release(fc);
    return;
  }

  // INT observations for this link. active_episodes() re-queries the time
  // traverse() already advanced to, so the RNG stream is the same whether
  // telemetry is on or off.
  std::uint32_t queue_depth = 0;
  std::uint32_t wire_faults = 0;
  if (fc->int_header) {
    queue_depth = link.active_episodes(fc->sent_at);
    wire_faults = clamp_u32(link.integrity().total());
  }
  const std::uint8_t next_ttl = fc->ttl > 0 ? fc->ttl - 1 : 0;
  const topology::PathHop& hop = path.hops[k + 1];
  const bool interior = k + 2 < path.hops.size();

  // Fork the extra copies the link's fault plan minted; each child takes
  // half the parent's remaining duplication budget, so total fan-out per
  // original packet stays bounded by kMaxCopies wherever copies appear.
  struct Pending {
    FlightCopy* flight;
    double link_delay_ms;
    WireDamage damage;
    bool primary;
  };
  std::vector<Pending> pending;
  pending.reserve(out.copies.size());
  for (std::size_t c = 1; c < out.copies.size(); ++c) {
    if (fc->dup_budget <= 0) break;
    fc->dup_budget -= 1;
    int child_budget = fc->dup_budget / 2;
    fc->dup_budget -= child_budget;
    FlightCopy* child = flights_->acquire();
    child->net = this;
    child->path = fc->path;
    child->packet = fc->packet;
    child->wire = fc->wire;
    child->sent_at = fc->sent_at;
    child->protocol = fc->protocol;
    child->flow = fc->flow;
    child->delay_ms = fc->delay_ms;
    child->next_link = k;
    child->ttl = fc->ttl;
    child->dup_budget = child_budget;
    child->int_header = fc->int_header;
    child->damages = fc->damages;
    pending.push_back(Pending{child, duration::to_ms(out.copies[c].delay),
                              out.copies[c].damage, false});
  }
  const DeliveryCopy& primary = out.copies.front();
  pending.push_back(Pending{fc, duration::to_ms(primary.delay),
                            primary.damage, true});

  // This event is homed on hop.asn, the AS the link enters: its record
  // holds the AS's streams, transit, ICMP policy and middlebox.
  AsRecord& as = *entry.ingress;
  // The next crossing (interior hops only). Links are never removed, and
  // send() checked that every link of the path is configured.
  LinkEntry* next = nullptr;
  if (interior) {
    const auto [nfrom, nto] = path.link_after(k + 1);
    next = find_link(nfrom, nto);
  }

  for (Pending& p : pending) {
    FlightCopy* f = p.flight;
    if (p.primary) obs_.link_delay_ms->record(p.link_delay_ms);
    const double entry_ms = f->delay_ms;
    f->delay_ms += p.link_delay_ms;
    if (p.damage.damaged()) f->damages.push_back(p.damage);
    f->ttl = next_ttl;

    if (next_ttl == 0 && interior) {
      // Expired at the ingress border router of hops[k+1]. The quoted
      // packet keeps its as-sent header (fc->packet.ip.ttl is original).
      obs_.ttl_expired->add();
      expire_with_time_exceeded(f->packet, entry.to, f->sent_at, f->delay_ms,
                                as);
      count_drop(f->protocol);
      flights_->release(f);
      continue;
    }

    // The adversarial middlebox of the AS being entered (if any) inspects
    // every copy at the ingress border — before transit, so added dwell
    // lands in the same INT residence the per-hop record exposes.
    double residence_ms = 0.0;
    if (as.middlebox && !as.middlebox->plan.empty()) {
      MiddleboxEntry& mb = *as.middlebox;
      const MiddleboxVerdict verdict =
          apply_middlebox(mb.plan, f->packet, queue_.now(), as.middlebox_rng,
                          as.mb_runtime, as.mb_stats);
      if (verdict.inspected) {
        mb.classified[static_cast<std::size_t>(verdict.cls)]->add();
        if (verdict.exempted) mb.exempted->add();
        if (verdict.adaptive_matched) mb.adaptive_matched->add();
        if (verdict.promoted_signature) mb.adaptive_promoted->add();
        if (verdict.flows_evicted > 0)
          mb.flows_evicted->add(verdict.flows_evicted);
        if (verdict.dropped) {
          (verdict.throttled ? mb.throttled : mb.dropped)->add();
          count_drop(f->protocol);
          flights_->release(f);
          continue;
        }
        if (verdict.extra_delay_ms > 0.0) {
          mb.deprioritized->add();
          residence_ms += verdict.extra_delay_ms;
        }
        if (verdict.mangled) {
          mb.mangled->add();
          f->damages.push_back(verdict.damage);
        }
      }
    }

    // Intra-AS transit applies only to ASes the packet crosses border to
    // border. Endpoints (hosts and border-router executors) do not
    // traverse their own AS interior — this is what lets an executor pair
    // at the two ends of an inter-domain link measure just that link
    // (paper Fig. 6). Each surviving copy draws its own transit jitter
    // from this domain's stream.
    if (interior) {
      const TransitConfig& transit = as.transit;
      if (as.transit_rng.chance(transit.loss_pm / 1000.0)) {
        count_drop(f->protocol);
        flights_->release(f);
        continue;  // loss is a silent network outcome, not an error
      }
      residence_ms += transit.delay_ms;
      if (transit.jitter_ms > 0.0)
        residence_ms += std::abs(as.transit_rng.normal(0.0, transit.jitter_ms));
    }

    if (f->int_header)
      push_int_record(f, hop, interior, p.link_delay_ms, residence_ms,
                      entry_ms, queue_depth, wire_faults, as);
    f->delay_ms += residence_ms;
    f->next_link = k + 1;

    if (!interior) {
      // Arrived at the destination AS's border: stamp the surviving TTL
      // into the delivered header, splice the INT stack, and hand the
      // copy to the destination's own domain.
      f->packet.ip.ttl = f->ttl;
      f->splice_int();
      schedule_arrival(f);
      continue;
    }

    // Next crossing, homed on the next link's ingress AS and timed at the
    // midpoint of that link's latency floor.
    f->link = next;
    queue_.schedule_raw_on(
        path.hops[k + 2].asn,
        f->sent_at +
            duration::from_ms(f->delay_ms + next->model->floor_ms() * 0.5),
        &SimulatedNetwork::hop_event, f);
  }
}

void SimulatedNetwork::schedule_arrival(FlightCopy* fc) {
  queue_.schedule_raw_on(domain_of(fc->packet.ip.destination),
                         fc->sent_at + duration::from_ms(fc->delay_ms),
                         &SimulatedNetwork::arrival_event, fc);
}

void SimulatedNetwork::process_arrival(FlightCopy* fc) {
  const net::Ipv4Address dst = fc->packet.ip.destination;
  auto attached = hosts_.find(dst);
  if (attached == hosts_.end()) {
    // No listener: the packet blackholes at the destination. Counted as a
    // drop; sending is still not an error (mirrors real networks).
    count_drop(fc->protocol);
    DEBUGLET_LOG(kDebug, "simnet") << "no host at " << dst.to_string();
    flights_->release(fc);
    return;
  }

  // The receiver's intra-AS access stub, drawn from this domain's stream.
  const AccessConfig& access = attached->second.access;
  double access_ms = access.delay_ms;
  if (access.jitter_ms > 0.0)
    access_ms += current_record().access_rng.normal(0.0, access.jitter_ms);
  const SimTime nominal =
      queue_.now() + duration::from_ms(std::max(access_ms, 0.0));

  // A slow destination adds its service delay, evaluated at the nominal
  // arrival instant (the fault window that matters is the one the packet
  // lands in, not the one it was sent in).
  const double extra_ms = host_fault_state(dst, nominal).extra_delay_ms;
  fc->deliver_host = attached->second.host;
  queue_.schedule_raw_on(queue_.current_domain(),
                         nominal + duration::from_ms(extra_ms),
                         &SimulatedNetwork::delivery_event, fc);
}

void SimulatedNetwork::process_delivery(FlightCopy* fc) {
  const net::Ipv4Address dst = fc->packet.ip.destination;
  // Hosts may detach while packets are in flight; deliver only if the
  // same host is still attached.
  auto attached = hosts_.find(dst);
  if (attached == hosts_.end() || attached->second.host != fc->deliver_host) {
    count_drop(fc->protocol);
    flights_->release(fc);
    return;
  }
  // A destination that crashed while the packet was in flight drops it
  // at arrival. Silenced hosts still receive — they just never answer.
  if (host_fault_state(dst, queue_.now()).crashed()) {
    count_drop(fc->protocol);
    obs_.host_fault_ingress_drops->add();
    flights_->release(fc);
    return;
  }
  Host* host = fc->deliver_host;
  Delivery d{std::move(fc->packet), fc->sent_at, queue_.now()};
  if (!fc->damages.empty()) {
    // Damaged copies carry their wire bytes and are re-parsed at arrival —
    // the receive path, not the sender, discovers in-flight damage. The
    // rejection is typed and counted, never silent.
    Bytes damaged = fc->wire;
    for (const WireDamage& dmg : fc->damages) apply_wire_damage(damaged, dmg);
    net::ParseErrorKind kind = net::ParseErrorKind::kNone;
    auto reparsed =
        net::parse_packet(BytesView(damaged.data(), damaged.size()), &kind);
    if (!reparsed) {
      count_drop(fc->protocol);
      obs::registry()
          .counter("net.parse_rejected",
                   {{"reason", net::parse_error_name(kind)}})
          .add();
      DEBUGLET_LOG(kDebug, "simnet")
          << "damaged frame rejected at " << dst.to_string() << ": "
          << reparsed.error_message();
      flights_->release(fc);
      return;
    }
    // Damage the checksums cannot see (e.g. UDP payload bits) arrives
    // as-is: application layers must defend themselves (obs/wire digests,
    // probe-sample filtering).
    d.packet = std::move(*reparsed);
  }
  ++delivered_[proto_index(d.packet.protocol)];
  obs_.delivered[proto_index(d.packet.protocol)]->add();
  host->on_packet(d);
  flights_->release(fc);
}

}  // namespace debuglet::simnet
