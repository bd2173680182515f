// Adaptive-adversary tests: the learning DPI mode of simnet/middlebox
// (signature frequency table, promotion at the learning horizon, TTL
// forgetting, the stateful flow table with idle/capacity eviction and TCP
// stream byte counting), the zero-RNG determinism contract of the learner,
// the min-event gate of the legacy loss z statistic, and the end-to-end
// arms race: a detector that repeats identical twins trains its own
// adversary and goes blind, while randomized twins starve the learner and
// keep naming the cheating AS.
#include <gtest/gtest.h>

#include <vector>

#include "core/discrimination.hpp"
#include "simnet/middlebox.hpp"
#include "simnet/scenarios.hpp"

namespace debuglet::simnet {
namespace {

using net::Protocol;

net::Packet packet_for(net::ProbeSpec spec) {
  if (spec.source.value == 0) spec.source = net::Ipv4Address(10, 0, 1, 200);
  if (spec.destination.value == 0)
    spec.destination = net::Ipv4Address(10, 0, 2, 200);
  auto wire = net::build_probe(spec);
  EXPECT_TRUE(wire.ok()) << wire.error_message();
  auto packet = net::parse_packet(BytesView(wire->data(), wire->size()));
  EXPECT_TRUE(packet.ok()) << packet.error_message();
  return *packet;
}

Bytes high_entropy(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (std::uint8_t& b : out)
    b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  return out;
}

// A UDP packet with the given ports and payload — the twin shape the
// detector emits (the destination port is the one discriminating bit).
net::Packet twin(std::uint16_t sport, std::uint16_t dport,
                 const Bytes& payload) {
  net::ProbeSpec spec;
  spec.source_port = sport;
  spec.destination_port = dport;
  spec.payload = payload;
  return packet_for(spec);
}

// --- The signature feature model ---------------------------------------------

TEST(AdaptiveSignature, TwinsCollideAndEveryFeatureSplitsTheKey) {
  const Bytes payload = high_entropy(48, 11);
  const net::Packet probe = twin(51000, 40021, payload);
  const net::Packet data = twin(51000, 27101, payload);

  // The twins differ only in destination port — which is NOT part of the
  // signature, so a learned probe signature matches its data twin. This
  // collision is the whole attack.
  EXPECT_EQ(adaptive_signature_of(probe), adaptive_signature_of(data));

  // Source ports bucket by 16: 51000 and 51007 share a bucket, 51008
  // starts the next one.
  EXPECT_EQ(adaptive_signature_of(twin(51007, 40021, payload)),
            adaptive_signature_of(probe));
  EXPECT_NE(adaptive_signature_of(twin(51008, 40021, payload)),
            adaptive_signature_of(probe));

  // A fresh payload prefix changes the key (the randomized detector's
  // per-round payload mutation defeats recurrence).
  EXPECT_NE(adaptive_signature_of(twin(51000, 40021, high_entropy(48, 12))),
            adaptive_signature_of(probe));

  // Same prefix, different size bucket: still a different key.
  Bytes longer = payload;
  longer.resize(96, 0x5A);
  EXPECT_NE(adaptive_signature_of(twin(51000, 40021, longer)),
            adaptive_signature_of(probe));
}

// --- Learning and promotion --------------------------------------------------

TEST(AdaptiveLearning, PromotionAtTheHorizonExemptsTheDataTwin) {
  ClassPolicy slow;
  slow.extra_delay_ms = 25.0;
  AdaptiveConfig ad;
  ad.enabled = true;
  ad.promote_after = 4;
  MiddleboxPlan plan;
  plan.policy_all(slow).recognize_probe_signatures(true).adaptive(ad);

  MiddleboxRuntime runtime;
  MiddleboxStats stats;
  Rng rng(1);
  const Bytes payload = high_entropy(48, 21);
  const net::Packet probe = twin(51000, 40021, payload);
  const net::Packet data = twin(51000, 27101, payload);

  // Before any learning: the probe rides clean, the data twin suffers —
  // the differential the detector keys on.
  SimTime now = 0;
  const MiddleboxVerdict before =
      apply_middlebox(plan, data, now, rng, runtime, stats);
  EXPECT_EQ(before.cls, TrafficClass::kOther);
  EXPECT_FALSE(before.exempted);
  EXPECT_GT(before.extra_delay_ms, 0.0);

  // Sightings below the horizon are learned but not promoted.
  for (int i = 0; i < 3; ++i) {
    now += duration::milliseconds(50);
    const MiddleboxVerdict v =
        apply_middlebox(plan, probe, now, rng, runtime, stats);
    EXPECT_EQ(v.cls, TrafficClass::kMeasurement);
    EXPECT_TRUE(v.exempted);
    EXPECT_FALSE(v.promoted_signature);
  }
  EXPECT_EQ(stats.signatures_learned, 3u);
  EXPECT_EQ(stats.signatures_promoted, 0u);
  EXPECT_EQ(stats.adaptive_matched, 0u);

  // The sighting that reaches the horizon promotes the signature.
  now += duration::milliseconds(50);
  const MiddleboxVerdict crossing =
      apply_middlebox(plan, probe, now, rng, runtime, stats);
  EXPECT_TRUE(crossing.promoted_signature);
  EXPECT_EQ(stats.signatures_promoted, 1u);

  // The data twin now matches the promoted signature: reclassified as
  // measurement, exempted alongside the probe — the differential is gone.
  now += duration::milliseconds(50);
  const MiddleboxVerdict after =
      apply_middlebox(plan, data, now, rng, runtime, stats);
  EXPECT_TRUE(after.adaptive_matched);
  EXPECT_EQ(after.cls, TrafficClass::kMeasurement);
  EXPECT_TRUE(after.exempted);
  EXPECT_EQ(after.extra_delay_ms, 0.0);
  EXPECT_EQ(stats.adaptive_matched, 1u);
}

TEST(AdaptiveLearning, SignatureTtlForgetsPromotedEntries) {
  ClassPolicy slow;
  slow.extra_delay_ms = 25.0;
  AdaptiveConfig ad;
  ad.enabled = true;
  ad.promote_after = 2;
  MiddleboxPlan plan;
  plan.policy_all(slow).recognize_probe_signatures(true).adaptive(ad);

  MiddleboxRuntime runtime;
  MiddleboxStats stats;
  Rng rng(2);
  const Bytes payload = high_entropy(48, 22);
  const net::Packet probe = twin(51000, 40021, payload);
  const net::Packet data = twin(51000, 27101, payload);

  SimTime now = 0;
  for (int i = 0; i < 2; ++i) {
    now += duration::milliseconds(50);
    apply_middlebox(plan, probe, now, rng, runtime, stats);
  }
  ASSERT_EQ(stats.signatures_promoted, 1u);
  now += duration::milliseconds(50);
  ASSERT_TRUE(apply_middlebox(plan, data, now, rng, runtime, stats)
                  .adaptive_matched);

  // Past the TTL the entry is stale: the campaign ended, the middlebox
  // forgets, and the data twin is judged on its own features again.
  now += ad.signature_ttl + duration::seconds(1);
  const MiddleboxVerdict v =
      apply_middlebox(plan, data, now, rng, runtime, stats);
  EXPECT_FALSE(v.adaptive_matched);
  EXPECT_EQ(v.cls, TrafficClass::kOther);
  EXPECT_FALSE(v.exempted);
  EXPECT_GT(v.extra_delay_ms, 0.0);
}

// --- The stateful flow table -------------------------------------------------

TEST(AdaptiveFlows, IdleEvictionRestartsTheFlow) {
  AdaptiveConfig ad;
  ad.enabled = true;
  MiddleboxPlan plan;
  plan.adaptive(ad);
  MiddleboxRuntime runtime;
  MiddleboxStats stats;
  Rng rng(3);
  const net::Packet pkt = twin(51000, 27101, high_entropy(48, 31));
  const std::uint64_t key = middlebox_flow_key(pkt);

  apply_middlebox(plan, pkt, 0, rng, runtime, stats);
  apply_middlebox(plan, pkt, duration::milliseconds(10), rng, runtime, stats);
  EXPECT_EQ(stats.flows_tracked, 1u);
  EXPECT_EQ(stats.flows_evicted, 0u);
  EXPECT_EQ(runtime.flows.at(key).packets, 2u);

  // Idle past the timeout: the old flow ends, this packet starts a new one.
  const SimTime later =
      duration::milliseconds(10) + ad.flow_idle_timeout + duration::seconds(1);
  const MiddleboxVerdict v =
      apply_middlebox(plan, pkt, later, rng, runtime, stats);
  EXPECT_EQ(v.flows_evicted, 1u);
  EXPECT_EQ(stats.flows_evicted, 1u);
  EXPECT_EQ(stats.flows_tracked, 2u);
  EXPECT_EQ(runtime.flows.at(key).packets, 1u);
}

TEST(AdaptiveFlows, CapacityEvictsTheStalestFlow) {
  AdaptiveConfig ad;
  ad.enabled = true;
  ad.max_flows = 2;
  MiddleboxPlan plan;
  plan.adaptive(ad);
  MiddleboxRuntime runtime;
  MiddleboxStats stats;
  Rng rng(4);
  const net::Packet a = twin(52000, 27101, high_entropy(48, 32));
  const net::Packet b = twin(52100, 27101, high_entropy(48, 33));
  const net::Packet c = twin(52200, 27101, high_entropy(48, 34));

  apply_middlebox(plan, a, 0, rng, runtime, stats);
  apply_middlebox(plan, b, duration::milliseconds(1), rng, runtime, stats);
  // Inserting the third flow with the table at capacity evicts the stalest.
  apply_middlebox(plan, c, duration::milliseconds(2), rng, runtime, stats);
  EXPECT_EQ(stats.flows_tracked, 3u);
  EXPECT_EQ(stats.flows_evicted, 1u);
  EXPECT_EQ(runtime.flows.count(middlebox_flow_key(a)), 0u);
  EXPECT_EQ(runtime.flows.count(middlebox_flow_key(b)), 1u);
  EXPECT_EQ(runtime.flows.count(middlebox_flow_key(c)), 1u);
}

TEST(AdaptiveFlows, TcpStreamBytesCountTcpPayloadOnly) {
  AdaptiveConfig ad;
  ad.enabled = true;
  MiddleboxPlan plan;
  plan.adaptive(ad);
  MiddleboxRuntime runtime;
  MiddleboxStats stats;
  Rng rng(5);

  net::ProbeSpec tcp;
  tcp.protocol = Protocol::kTcp;
  tcp.source_port = 51000;
  tcp.destination_port = 443;
  tcp.payload = high_entropy(100, 41);
  const net::Packet stream = packet_for(tcp);
  const net::Packet datagram = twin(51000, 27101, high_entropy(100, 42));

  apply_middlebox(plan, stream, 0, rng, runtime, stats);
  apply_middlebox(plan, stream, duration::milliseconds(1), rng, runtime,
                  stats);
  apply_middlebox(plan, datagram, duration::milliseconds(2), rng, runtime,
                  stats);
  apply_middlebox(plan, datagram, duration::milliseconds(3), rng, runtime,
                  stats);

  const FlowState& tcp_flow = runtime.flows.at(middlebox_flow_key(stream));
  EXPECT_EQ(tcp_flow.cls, TrafficClass::kInteractive);
  EXPECT_EQ(tcp_flow.payload_bytes, 200u);
  EXPECT_EQ(tcp_flow.tcp_stream_bytes, 200u);

  const FlowState& udp_flow = runtime.flows.at(middlebox_flow_key(datagram));
  EXPECT_EQ(udp_flow.payload_bytes, 200u);
  EXPECT_EQ(udp_flow.tcp_stream_bytes, 0u);
}

TEST(AdaptiveFlows, ClassIsPinnedAtTheFirstPacket) {
  AdaptiveConfig ad;
  ad.enabled = true;
  MiddleboxPlan plan;
  plan.adaptive(ad).recognize_probe_signatures(true);
  MiddleboxRuntime runtime;
  MiddleboxStats stats;
  Rng rng(6);

  // Same 5-tuple, two payload styles: the zero-padded opener reads as
  // measurement, the noisy follow-up would read as "other" on its own.
  const net::Packet padded = twin(51000, 27101, Bytes(64, 0));
  const net::Packet noisy = twin(51000, 27101, high_entropy(64, 51));
  ASSERT_EQ(classify_packet(noisy), TrafficClass::kOther);

  const MiddleboxVerdict first =
      apply_middlebox(plan, padded, 0, rng, runtime, stats);
  EXPECT_EQ(first.cls, TrafficClass::kMeasurement);

  // Stateful DPI: the flow keeps the class of its first packet, so the
  // noisy packet inherits measurement treatment (and the exemption).
  const MiddleboxVerdict second = apply_middlebox(
      plan, noisy, duration::milliseconds(5), rng, runtime, stats);
  EXPECT_EQ(second.cls, TrafficClass::kMeasurement);
  EXPECT_TRUE(second.exempted);
}

// --- Determinism: learning is pure counting ----------------------------------

TEST(AdaptiveDeterminism, LearnerDrawsNothingFromTheRng) {
  AdaptiveConfig ad;
  ad.enabled = true;
  ad.promote_after = 2;
  MiddleboxPlan plan;
  plan.adaptive(ad);  // no policies configured: nothing may draw
  MiddleboxRuntime runtime;
  MiddleboxStats stats;
  Rng rng(77);
  const Bytes payload = high_entropy(48, 61);
  for (int i = 0; i < 16; ++i)
    apply_middlebox(plan, twin(51000, 40021, payload),
                    duration::milliseconds(50) * i, rng, runtime, stats);
  EXPECT_GT(stats.signatures_promoted, 0u);
  // The zero-draw contract: learning, promotion and flow tracking
  // consumed no draws — the stream is exactly where a fresh one starts.
  EXPECT_EQ(rng.next_u64(), Rng(77).next_u64());
}

// --- The legacy loss z statistic's min-event gate ----------------------------

TEST(LossZGate, FewLossEventsAreInconclusive) {
  core::TwinClassSummary probe;
  core::TwinClassSummary data;
  probe.sent = 40;
  probe.received = 40;
  data.sent = 40;
  data.received = 38;  // 2 losses: below the 5-event gate

  EXPECT_EQ(core::two_proportion_loss_z(probe, data, 5), 0.0);
  // Ungated, the same handful of events yields a (misleadingly) large z.
  EXPECT_GT(core::two_proportion_loss_z(probe, data, 0), 0.0);

  // With enough events the statistic counts again — and points the right
  // way (data-like loses more => positive).
  data.received = 28;
  EXPECT_GT(core::two_proportion_loss_z(probe, data, 5), 2.0);
}

// --- The arms race end to end ------------------------------------------------

// A 5-AS chain whose middle AS hides a slow queue behind fault hiding AND
// runs the learner (the bench scenario, one seed). One static detector
// visit trains the learner past the horizon; after that, static twins are
// evaded while randomized twins still name the AS.
Scenario arms_race_scenario(std::uint64_t seed, std::uint32_t promote_after) {
  Scenario s = build_chain_scenario(5, seed, 5.0);
  s.network->set_int_enabled(true);
  ClassPolicy slow;
  slow.extra_delay_ms = 25.0;
  slow.drop_pm = 60.0;
  MiddleboxPlan plan;
  plan.policy_all(slow).recognize_probe_signatures(true);
  const auto& topo = s.network->topology();
  for (topology::AsNumber as = 1; as <= 5; ++as) {
    plan.recognize(topo.address_of(topology::InterfaceKey{as, 1}));
    plan.recognize(topo.address_of(topology::InterfaceKey{as, 2}));
  }
  AdaptiveConfig adaptive;
  adaptive.enabled = true;
  adaptive.promote_after = promote_after;
  plan.adaptive(adaptive);
  EXPECT_TRUE(s.network->install_middlebox(3, plan).ok());
  return s;
}

core::DiscriminationReport run_detector(Scenario& s, std::uint64_t seed,
                                        bool randomize) {
  core::DiscriminationDetector::Options opts;
  opts.randomize_twins = randomize;
  core::DiscriminationDetector detector(*s.network, 1, 5, seed, opts);
  auto report = detector.run();
  EXPECT_TRUE(report.ok()) << report.error_message();
  return *report;
}

TEST(ArmsRace, StaticTwinsTrainTheAdversaryAndGoBlind) {
  const std::uint64_t seed = 17002;
  Scenario s = arms_race_scenario(seed, 8);

  // The naive operator's repeated static check: the first visit feeds the
  // learner the recurrence it needs...
  run_detector(s, seed + 31, /*randomize=*/false);
  const MiddleboxStats trained = s.network->middlebox_stats(3);
  EXPECT_GT(trained.signatures_promoted, 0u);

  // ...and the second identical visit is evaded: both twins match the
  // promoted signature and ride clean, so there is nothing to detect.
  const core::DiscriminationReport second =
      run_detector(s, seed + 31, /*randomize=*/false);
  EXPECT_FALSE(second.detected) << second.decision;
  EXPECT_GT(s.network->middlebox_stats(3).adaptive_matched,
            trained.adaptive_matched);
}

TEST(ArmsRace, RandomizedTwinsStarveTheLearnerAndNameTheAs) {
  const std::uint64_t seed = 17002;
  Scenario s = arms_race_scenario(seed, 8);

  // The same warm-up trains the learner identically — but the hardened
  // detector never reuses a signature, so the promoted entry matches
  // nothing it sends and the SPRT names the AS as usual.
  run_detector(s, seed + 31, /*randomize=*/false);
  ASSERT_GT(s.network->middlebox_stats(3).signatures_promoted, 0u);

  const core::DiscriminationReport report =
      run_detector(s, seed + 31, /*randomize=*/true);
  EXPECT_TRUE(report.detected) << report.decision;
  EXPECT_EQ(report.named_as(), 3u);
  EXPECT_GE(report.top_confidence(), 0.8);
  // Sequential testing beats the legacy fixed-40 budget.
  EXPECT_LE(report.rounds_used, 40u);
}

}  // namespace
}  // namespace debuglet::simnet
