#include "simnet/middlebox.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/int_header.hpp"

namespace debuglet::simnet {

namespace {

// Port fingerprints the DPI model keys on. Traceroute probes walk the
// classic 33434+ range; Debuglet rendezvous ports (initiator-assigned echo
// endpoints) and simnet probe clients live in [40000, 49000).
bool is_measurement_port(std::uint16_t port) {
  return (port >= 33434 && port < 33534) || (port >= 40000 && port < 49000);
}

// Well-known interactive/service ports (the DPI paper's protocol
// fingerprints are far richer; ports are the coarse stand-in).
bool is_interactive_port(std::uint16_t port) {
  switch (port) {
    case 22:
    case 25:
    case 53:
    case 80:
    case 443:
    case 8080:
      return true;
    default:
      return false;
  }
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* data,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_u32(std::uint64_t h, std::uint32_t v) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  return fnv1a(h, bytes, sizeof bytes);
}

void packet_ports(const net::Packet& packet, std::uint16_t& sport,
                  std::uint16_t& dport) {
  sport = dport = 0;
  if (packet.udp) {
    sport = packet.udp->source_port;
    dport = packet.udp->destination_port;
  } else if (packet.tcp) {
    sport = packet.tcp->source_port;
    dport = packet.tcp->destination_port;
  }
}

// The application bytes the heuristics and the learner inspect: the
// payload after any leading INT block.
BytesView app_bytes(const net::Packet& packet) {
  const BytesView payload(packet.payload.data(), packet.payload.size());
  const std::size_t skip = telemetry::IntHeader::prefix_size(payload);
  return BytesView(payload.data() + skip, payload.size() - skip);
}

// log2-of-milliseconds pacing bucket (0 = sub-millisecond burst).
std::uint8_t pacing_bucket(SimDuration gap) {
  std::int64_t ms = gap / 1'000'000;
  std::uint8_t bucket = 0;
  while (ms > 1 && bucket < 63) {
    ms >>= 1;
    ++bucket;
  }
  return bucket;
}

// Idle sweep + stalest-first capacity eviction of the flow table. Runs on
// insertions only, so the amortized cost stays proportional to new-flow
// arrival, not per-packet.
std::uint32_t evict_flows(MiddleboxRuntime& runtime, const AdaptiveConfig& ad,
                          SimTime now) {
  std::uint32_t evicted = 0;
  for (auto it = runtime.flows.begin(); it != runtime.flows.end();) {
    if (now - it->second.last_seen > ad.flow_idle_timeout) {
      it = runtime.flows.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  while (runtime.flows.size() >= std::max<std::size_t>(ad.max_flows, 1)) {
    auto stalest = runtime.flows.begin();
    for (auto it = runtime.flows.begin(); it != runtime.flows.end(); ++it)
      if (it->second.last_seen < stalest->second.last_seen) stalest = it;
    runtime.flows.erase(stalest);
    ++evicted;
  }
  return evicted;
}

void evict_signatures(MiddleboxRuntime& runtime, const AdaptiveConfig& ad,
                      SimTime now) {
  // Pacing anchors age out with the signatures they anchor.
  for (auto it = runtime.last_measurement_at.begin();
       it != runtime.last_measurement_at.end();) {
    if (now - it->second > ad.signature_ttl)
      it = runtime.last_measurement_at.erase(it);
    else
      ++it;
  }
  for (auto it = runtime.signatures.begin();
       it != runtime.signatures.end();) {
    if (now - it->second.last_seen > ad.signature_ttl)
      it = runtime.signatures.erase(it);
    else
      ++it;
  }
  while (runtime.signatures.size() >=
         std::max<std::size_t>(ad.max_signatures, 1)) {
    auto stalest = runtime.signatures.begin();
    for (auto it = runtime.signatures.begin(); it != runtime.signatures.end();
         ++it)
      if (it->second.last_seen < stalest->second.last_seen) stalest = it;
    runtime.signatures.erase(stalest);
  }
}

}  // namespace

std::uint64_t adaptive_signature_of(const net::Packet& packet) {
  std::uint16_t sport = 0, dport = 0;
  packet_ports(packet, sport, dport);
  const BytesView app = app_bytes(packet);
  // Prefix hash over the first 16 application bytes: enough to pin a
  // static payload, cheap enough for the hop path.
  const std::size_t prefix = std::min<std::size_t>(app.size(), 16);
  std::uint64_t h = fnv1a(kFnvOffset, app.data(), prefix);
  const std::uint32_t prefix_hash = static_cast<std::uint32_t>(h ^ (h >> 32));
  const std::uint64_t src_bucket = sport >> 4;       // 16-port buckets
  const std::uint64_t size_bucket = app.size() >> 4;  // 16-byte buckets
  return (src_bucket << 48) ^ (static_cast<std::uint64_t>(prefix_hash) << 8) ^
         (size_bucket & 0xFF) ^
         (static_cast<std::uint64_t>(packet.protocol) << 40);
}

std::uint64_t middlebox_flow_key(const net::Packet& packet) {
  std::uint16_t sport = 0, dport = 0;
  packet_ports(packet, sport, dport);
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u32(h, packet.ip.source.value);
  h = fnv1a_u32(h, packet.ip.destination.value);
  h = fnv1a_u32(h, (static_cast<std::uint32_t>(sport) << 16) | dport);
  h = fnv1a_u32(h, static_cast<std::uint32_t>(packet.protocol));
  return h;
}

const char* traffic_class_name(TrafficClass c) {
  switch (c) {
    case TrafficClass::kMeasurement: return "measurement";
    case TrafficClass::kInteractive: return "interactive";
    case TrafficClass::kBulk: return "bulk";
    case TrafficClass::kOther: return "other";
  }
  return "other";
}

TrafficClass classify_packet(const net::Packet& packet) {
  // ICMP and the paper's raw-IP probe protocol ARE measurement traffic —
  // no ambiguity for the classifier to resolve.
  if (packet.protocol == net::Protocol::kIcmp ||
      packet.protocol == net::Protocol::kRawIp)
    return TrafficClass::kMeasurement;

  std::uint16_t sport = 0, dport = 0;
  if (packet.udp) {
    sport = packet.udp->source_port;
    dport = packet.udp->destination_port;
  } else if (packet.tcp) {
    sport = packet.tcp->source_port;
    dport = packet.tcp->destination_port;
  }
  if (is_measurement_port(sport) || is_measurement_port(dport))
    return TrafficClass::kMeasurement;
  if (packet.tcp && (is_interactive_port(sport) || is_interactive_port(dport)))
    return TrafficClass::kInteractive;

  // Payload heuristics run on the APPLICATION bytes: a leading INT block
  // is forwarding-plane metadata, not something the application chose.
  const BytesView payload(packet.payload.data(), packet.payload.size());
  const std::size_t skip = telemetry::IntHeader::prefix_size(payload);
  const BytesView app(payload.data() + skip, payload.size() - skip);
  if (app.size() >= 512) return TrafficClass::kBulk;
  // Zero-padded equalized probes have near-zero byte entropy; real data
  // (compressed, encrypted) sits near 8 bits/byte.
  if (app.size() >= 16 && net::payload_entropy_bits(app) < 2.0)
    return TrafficClass::kMeasurement;
  return TrafficClass::kOther;
}

MiddleboxPlan& MiddleboxPlan::policy(TrafficClass c, const ClassPolicy& p) {
  policies_[static_cast<std::size_t>(c)] = p;
  return *this;
}

MiddleboxPlan& MiddleboxPlan::policy_all(const ClassPolicy& p) {
  for (ClassPolicy& slot : policies_) slot = p;
  return *this;
}

MiddleboxPlan& MiddleboxPlan::policy_except_measurement(const ClassPolicy& p) {
  policy_all(p);
  policies_[static_cast<std::size_t>(TrafficClass::kMeasurement)] =
      ClassPolicy{};
  return *this;
}

MiddleboxPlan& MiddleboxPlan::recognize(net::Ipv4Address address) {
  if (std::find(recognized_.begin(), recognized_.end(), address) ==
      recognized_.end())
    recognized_.push_back(address);
  return *this;
}

MiddleboxPlan& MiddleboxPlan::recognize_probe_signatures(bool on) {
  recognize_signatures_ = on;
  return *this;
}

MiddleboxPlan& MiddleboxPlan::window(FaultWindow w) {
  window_ = w;
  return *this;
}

MiddleboxPlan& MiddleboxPlan::adaptive(const AdaptiveConfig& cfg) {
  adaptive_ = cfg;
  return *this;
}

bool MiddleboxPlan::empty() const {
  if (adaptive_.enabled) return false;  // the learner observes even when
                                        // no policy punishes
  for (const ClassPolicy& p : policies_)
    if (!p.empty()) return false;
  return true;
}

bool MiddleboxPlan::recognizes(const net::Packet& packet,
                               TrafficClass cls) const {
  if (recognize_signatures_ && cls == TrafficClass::kMeasurement) return true;
  for (net::Ipv4Address address : recognized_)
    if (packet.ip.source == address || packet.ip.destination == address)
      return true;
  return false;
}

MiddleboxVerdict apply_middlebox(const MiddleboxPlan& plan,
                                 const net::Packet& packet, SimTime now,
                                 Rng& rng, MiddleboxRuntime& runtime,
                                 MiddleboxStats& stats) {
  MiddleboxVerdict v;
  if (!plan.active_window().active_at(now)) return v;
  v.inspected = true;
  v.cls = classify_packet(packet);

  // Adaptive mode: stateful flows + the signature learner may override
  // the static class. Pure counting over the domain's state — no RNG draws.
  const AdaptiveConfig& ad = plan.adaptive_config();
  if (ad.enabled) {
    const std::uint64_t fkey = middlebox_flow_key(packet);
    auto flow_it = runtime.flows.find(fkey);
    if (flow_it != runtime.flows.end() &&
        now - flow_it->second.last_seen > ad.flow_idle_timeout) {
      // Stale hit: the old flow ended; this packet starts a new one.
      runtime.flows.erase(flow_it);
      flow_it = runtime.flows.end();
      v.flows_evicted += 1;
      stats.flows_evicted += 1;
    }
    if (flow_it == runtime.flows.end()) {
      const std::uint32_t swept = evict_flows(runtime, ad, now);
      v.flows_evicted += swept;
      stats.flows_evicted += swept;
      FlowState fresh;
      fresh.cls = v.cls;
      fresh.first_seen = now;
      flow_it = runtime.flows.emplace(fkey, fresh).first;
      stats.flows_tracked += 1;
    } else {
      // Per-flow verdict: the class pinned at the first packet wins.
      v.cls = flow_it->second.cls;
    }
    FlowState& flow = flow_it->second;

    // A promoted signature reclassifies the packet — and re-pins its
    // flow — as measurement, whatever its ports say.
    const std::uint64_t sig = adaptive_signature_of(packet);
    auto sig_it = runtime.signatures.find(sig);
    if (sig_it != runtime.signatures.end() &&
        now - sig_it->second.last_seen > ad.signature_ttl) {
      runtime.signatures.erase(sig_it);
      sig_it = runtime.signatures.end();
    }
    if (sig_it != runtime.signatures.end() && sig_it->second.promoted &&
        v.cls != TrafficClass::kMeasurement) {
      v.cls = TrafficClass::kMeasurement;
      v.adaptive_matched = true;
      flow.cls = TrafficClass::kMeasurement;
      stats.adaptive_matched += 1;
    }

    // Learn from everything that ended up classified as measurement.
    if (v.cls == TrafficClass::kMeasurement) {
      if (sig_it == runtime.signatures.end()) {
        evict_signatures(runtime, ad, now);
        sig_it = runtime.signatures.emplace(sig, SignatureState{}).first;
      }
      SignatureState& st = sig_it->second;
      st.sightings += 1;
      st.last_seen = now;
      const auto anchor = runtime.last_measurement_at.find(
          packet.ip.source.value);
      const std::uint8_t bucket =
          anchor == runtime.last_measurement_at.end()
              ? std::uint8_t{0}
              : pacing_bucket(now - anchor->second);
      st.pacing_min = std::min(st.pacing_min, bucket);
      st.pacing_max = std::max(st.pacing_max, bucket);
      stats.signatures_learned += 1;
      if (!st.promoted && st.sightings >= ad.promote_after) {
        st.promoted = true;
        v.promoted_signature = true;
        stats.signatures_promoted += 1;
      }
      runtime.last_measurement_at[packet.ip.source.value] = now;
    }

    flow.last_seen = now;
    flow.packets += 1;
    flow.payload_bytes += packet.payload.size();
    if (packet.tcp) flow.tcp_stream_bytes += packet.payload.size();
  }

  const std::size_t ci = static_cast<std::size_t>(v.cls);
  stats.classified[ci] += 1;

  // Fault hiding: recognized traffic rides the fast path untouched. No
  // RNG draw happens for it, so a hidden flow cannot even perturb the
  // treatment of its twins.
  if (plan.recognizes(packet, v.cls)) {
    v.exempted = true;
    stats.exempted += 1;
    return v;
  }

  const ClassPolicy& policy = plan.policy_for(v.cls);
  if (policy.empty()) return v;

  // Throttle first (deterministic, no draw): a fixed per-second budget
  // per class, excess dropped.
  if (policy.throttle_pps > 0) {
    const std::int64_t second = now / 1'000'000'000;
    if (runtime.window_second != second) {
      runtime.window_second = second;
      runtime.sent_in_window.fill(0);
    }
    if (runtime.sent_in_window[ci] >= policy.throttle_pps) {
      v.dropped = true;
      v.throttled = true;
      stats.throttled += 1;
      return v;
    }
    runtime.sent_in_window[ci] += 1;
  }

  if (policy.drop_pm > 0.0 && rng.chance(policy.drop_pm / 1000.0)) {
    v.dropped = true;
    stats.dropped += 1;
    return v;
  }

  if (policy.extra_delay_ms > 0.0) {
    double extra = policy.extra_delay_ms;
    if (policy.delay_jitter_ms > 0.0)
      extra += std::abs(rng.normal(0.0, policy.delay_jitter_ms));
    v.extra_delay_ms = extra;
    stats.deprioritized += 1;
  }

  if (policy.mangle_pm > 0.0 && rng.chance(policy.mangle_pm / 1000.0)) {
    // Mangle the application payload only: headers and their checksums
    // stay valid (a middlebox wants the packet delivered, just wrong),
    // and a leading INT block is left alone — its digest would expose
    // tampering immediately, so a stealthy box rewrites what follows.
    const BytesView payload(packet.payload.data(), packet.payload.size());
    const std::size_t app_offset =
        net::header_overhead(packet.protocol) +
        telemetry::IntHeader::prefix_size(payload);
    if (app_offset < packet.wire_size()) {
      v.mangled = true;
      v.damage.kind = WireDamage::Kind::kMangle;
      v.damage.seed = rng.next_u64();
      v.damage.bit_flips =
          1 + static_cast<std::uint32_t>(
                  rng.next_below(std::max(policy.mangle_max_bit_flips, 1u)));
      v.damage.offset = static_cast<std::uint32_t>(app_offset);
      stats.mangled += 1;
    }
  }
  return v;
}

}  // namespace debuglet::simnet
