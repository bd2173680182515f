// Adversarial-middlebox tests: DPI classification heuristics, per-class
// policies, fault hiding, determinism, and the twin-probe
// DiscriminationDetector (core/discrimination) that names the
// discriminating AS — including the end-to-end §VI-E scenario where a
// fault-hiding AS conceals its slow queue from executor probes and only
// the twin probes expose it.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/debuglet.hpp"
#include "simnet/hosts.hpp"
#include "simnet/middlebox.hpp"
#include "simnet/scenarios.hpp"
#include "telemetry/int_header.hpp"

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

TEST(MiddleboxClassify, ProtocolAndPortFingerprints) {
  net::ProbeSpec icmp;
  icmp.protocol = Protocol::kIcmp;
  EXPECT_EQ(classify_packet(packet_for(icmp)), TrafficClass::kMeasurement);

  net::ProbeSpec raw;
  raw.protocol = Protocol::kRawIp;
  raw.payload = high_entropy(64, 1);  // even noisy payloads: protocol wins
  EXPECT_EQ(classify_packet(packet_for(raw)), TrafficClass::kMeasurement);

  net::ProbeSpec rendezvous;
  rendezvous.source_port = 51000;
  rendezvous.destination_port = 40021;  // Debuglet rendezvous range
  rendezvous.payload = high_entropy(64, 2);
  EXPECT_EQ(classify_packet(packet_for(rendezvous)),
            TrafficClass::kMeasurement);

  net::ProbeSpec traceroute;
  traceroute.source_port = 51000;
  traceroute.destination_port = 33434;  // classic traceroute base port
  traceroute.payload = high_entropy(64, 3);
  EXPECT_EQ(classify_packet(packet_for(traceroute)),
            TrafficClass::kMeasurement);

  net::ProbeSpec https;
  https.protocol = Protocol::kTcp;
  https.source_port = 51000;
  https.destination_port = 443;
  https.payload = high_entropy(64, 4);
  EXPECT_EQ(classify_packet(packet_for(https)), TrafficClass::kInteractive);
}

TEST(MiddleboxClassify, PayloadHeuristics) {
  // Large payloads on unremarkable ports read as bulk.
  net::ProbeSpec bulk;
  bulk.source_port = 51000;
  bulk.destination_port = 27101;
  bulk.payload = high_entropy(600, 5);
  EXPECT_EQ(classify_packet(packet_for(bulk)), TrafficClass::kBulk);

  // Zero-padded (equalized) payloads have near-zero entropy: the DPI
  // model reads them as measurement even on innocent ports.
  net::ProbeSpec padded;
  padded.source_port = 51000;
  padded.destination_port = 27101;
  padded.payload = Bytes(64, 0);
  EXPECT_EQ(classify_packet(packet_for(padded)), TrafficClass::kMeasurement);

  // High-entropy small payloads pass as ordinary traffic.
  net::ProbeSpec data;
  data.source_port = 51000;
  data.destination_port = 27101;
  data.payload = high_entropy(64, 6);
  EXPECT_EQ(classify_packet(packet_for(data)), TrafficClass::kOther);

  EXPECT_LT(net::payload_entropy_bits(BytesView(padded.payload.data(),
                                                padded.payload.size())),
            0.1);
  EXPECT_GT(net::payload_entropy_bits(
                BytesView(data.payload.data(), data.payload.size())),
            4.0);
}

TEST(MiddleboxClassify, IntPrefixIsSkippedBeforePayloadInspection) {
  // A leading INT block is forwarding-plane metadata: the heuristics must
  // judge only the application bytes after it.
  const Bytes prefix = telemetry::IntHeader::reserve(8).serialize();
  ASSERT_EQ(telemetry::IntHeader::prefix_size(
                BytesView(prefix.data(), prefix.size())),
            prefix.size());

  net::ProbeSpec spec;
  spec.source_port = 51000;
  spec.destination_port = 27101;
  spec.payload = prefix;
  const Bytes tail = high_entropy(48, 7);
  spec.payload.insert(spec.payload.end(), tail.begin(), tail.end());
  // 340 bytes of INT + 48 noisy bytes: still "other", not bulk, because
  // only the 48 application bytes count.
  EXPECT_EQ(classify_packet(packet_for(spec)), TrafficClass::kOther);

  spec.payload = prefix;
  spec.payload.insert(spec.payload.end(), 32, 0);
  // INT + zero padding: the padding gives it away as a probe.
  EXPECT_EQ(classify_packet(packet_for(spec)), TrafficClass::kMeasurement);
}

struct Applied {
  MiddleboxVerdict verdict;
  MiddleboxStats stats;
};

Applied apply_once(const MiddleboxPlan& plan, const net::Packet& packet,
                   SimTime now = 0, std::uint64_t seed = 99) {
  Applied out;
  Rng rng(seed);
  MiddleboxRuntime runtime;
  out.verdict = apply_middlebox(plan, packet, now, rng, runtime, out.stats);
  return out;
}

net::Packet data_packet(std::uint64_t seed = 11) {
  net::ProbeSpec spec;
  spec.source_port = 51000;
  spec.destination_port = 27101;
  spec.payload = high_entropy(48, seed);
  return packet_for(spec);
}

TEST(MiddleboxPolicy, DropDelayAndWindow) {
  ClassPolicy certain_drop;
  certain_drop.drop_pm = 1000.0;
  MiddleboxPlan dropper;
  dropper.policy(TrafficClass::kOther, certain_drop);
  const Applied dropped = apply_once(dropper, data_packet());
  EXPECT_TRUE(dropped.verdict.dropped);
  EXPECT_FALSE(dropped.verdict.throttled);
  EXPECT_EQ(dropped.stats.dropped, 1u);

  ClassPolicy slow;
  slow.extra_delay_ms = 7.5;
  MiddleboxPlan delayer;
  delayer.policy(TrafficClass::kOther, slow);
  const Applied delayed = apply_once(delayer, data_packet());
  EXPECT_FALSE(delayed.verdict.dropped);
  EXPECT_DOUBLE_EQ(delayed.verdict.extra_delay_ms, 7.5);
  EXPECT_EQ(delayed.stats.deprioritized, 1u);

  // Outside the plan's window nothing is even inspected.
  delayer.window(FaultWindow{duration::seconds(10), duration::seconds(20)});
  const Applied outside = apply_once(delayer, data_packet(), 0);
  EXPECT_FALSE(outside.verdict.inspected);
  EXPECT_EQ(outside.stats.inspected(), 0u);
  const Applied inside =
      apply_once(delayer, data_packet(), duration::seconds(15));
  EXPECT_TRUE(inside.verdict.inspected);
  EXPECT_DOUBLE_EQ(inside.verdict.extra_delay_ms, 7.5);

  // A measurement-class packet is untouched by policy_except_measurement.
  MiddleboxPlan except;
  ClassPolicy harsh;
  harsh.drop_pm = 1000.0;
  except.policy_except_measurement(harsh);
  net::ProbeSpec probe;
  probe.destination_port = 40021;
  const Applied clean = apply_once(except, packet_for(probe));
  EXPECT_TRUE(clean.verdict.inspected);
  EXPECT_FALSE(clean.verdict.dropped);
  EXPECT_EQ(clean.stats.classified[static_cast<std::size_t>(
                TrafficClass::kMeasurement)],
            1u);
}

TEST(MiddleboxPolicy, MangleDamagesOnlyApplicationBytes) {
  ClassPolicy mangle;
  mangle.mangle_pm = 1000.0;
  mangle.mangle_max_bit_flips = 3;
  MiddleboxPlan mangler;
  mangler.policy(TrafficClass::kOther, mangle);

  net::ProbeSpec spec;
  spec.source_port = 51000;
  spec.destination_port = 27101;
  spec.payload = telemetry::IntHeader::reserve(4).serialize();
  const std::size_t int_size = spec.payload.size();
  const Bytes tail = high_entropy(48, 21);
  spec.payload.insert(spec.payload.end(), tail.begin(), tail.end());
  const net::Packet packet = packet_for(spec);

  const Applied out = apply_once(mangler, packet);
  ASSERT_TRUE(out.verdict.mangled);
  EXPECT_EQ(out.verdict.damage.kind, WireDamage::Kind::kMangle);
  EXPECT_EQ(out.verdict.damage.offset,
            net::header_overhead(Protocol::kUdp) + int_size);
  EXPECT_EQ(out.stats.mangled, 1u);

  auto wire = net::build_probe(spec);
  ASSERT_TRUE(wire.ok());
  Bytes damaged = *wire;
  apply_wire_damage(damaged, out.verdict.damage);
  // Headers and the INT block are untouched; only the tail changed.
  EXPECT_TRUE(std::equal(wire->begin(),
                         wire->begin() + out.verdict.damage.offset,
                         damaged.begin()));
  EXPECT_NE(*wire, damaged);
}

TEST(MiddleboxPolicy, ThrottleBudgetResetsPerSecond) {
  ClassPolicy budget;
  budget.throttle_pps = 2;
  MiddleboxPlan throttler;
  throttler.policy(TrafficClass::kOther, budget);

  Rng rng(5);
  MiddleboxRuntime runtime;
  MiddleboxStats stats;
  const net::Packet packet = data_packet();
  for (int i = 0; i < 2; ++i) {
    const MiddleboxVerdict v =
        apply_middlebox(throttler, packet, 100, rng, runtime, stats);
    EXPECT_FALSE(v.dropped) << "packet " << i << " within budget";
  }
  const MiddleboxVerdict third =
      apply_middlebox(throttler, packet, 200, rng, runtime, stats);
  EXPECT_TRUE(third.dropped);
  EXPECT_TRUE(third.throttled);
  EXPECT_EQ(stats.throttled, 1u);
  // The next second starts a fresh budget.
  const MiddleboxVerdict next = apply_middlebox(
      throttler, packet, duration::seconds(1) + 100, rng, runtime, stats);
  EXPECT_FALSE(next.dropped);
}

TEST(MiddleboxPolicy, FaultHidingExemptsRecognizedTraffic) {
  ClassPolicy harsh;
  harsh.drop_pm = 1000.0;
  MiddleboxPlan hider;
  hider.policy_all(harsh);
  hider.recognize_probe_signatures(true);

  // Measurement-class traffic rides clean on signature alone.
  net::ProbeSpec probe;
  probe.destination_port = 40021;
  const Applied by_signature = apply_once(hider, packet_for(probe));
  EXPECT_TRUE(by_signature.verdict.exempted);
  EXPECT_FALSE(by_signature.verdict.dropped);
  EXPECT_EQ(by_signature.stats.exempted, 1u);

  // Ordinary traffic suffers.
  const Applied victim = apply_once(hider, data_packet());
  EXPECT_FALSE(victim.verdict.exempted);
  EXPECT_TRUE(victim.verdict.dropped);

  // A recognized address is clean regardless of class, either direction.
  const net::Packet data = data_packet();
  MiddleboxPlan by_addr;
  by_addr.policy_all(harsh);
  by_addr.recognize(data.ip.source);
  EXPECT_TRUE(apply_once(by_addr, data).verdict.exempted);
  MiddleboxPlan by_dst;
  by_dst.policy_all(harsh);
  by_dst.recognize(data.ip.destination);
  EXPECT_TRUE(apply_once(by_dst, data).verdict.exempted);
  EXPECT_TRUE(by_addr.hiding());
  EXPECT_FALSE(MiddleboxPlan{}.hiding());
}

/// Probe rounds through a chain with a middlebox on AS2. The client uses
/// a non-measurement server port, but its 16-byte low-entropy payloads
/// still fingerprint as measurement traffic — ports alone don't hide a
/// probe from the DPI model.
std::string middlebox_run_trace(std::uint64_t seed, const MiddleboxPlan& plan,
                                MiddleboxStats* stats_out = nullptr) {
  Scenario s = build_chain_scenario(3, seed, 5.0);
  EXPECT_TRUE(s.network->install_middlebox(2, plan).ok());
  const auto server_addr = s.network->allocate_host_address(3);
  EchoServerHost server(*s.network, server_addr);
  EXPECT_TRUE(s.network->attach_host(server_addr, &server));
  ProbeClientConfig cfg;
  cfg.server = server_addr;
  cfg.server_port = 27101;  // deliberately outside the measurement ranges
  cfg.probe_count = 30;
  cfg.interval = duration::milliseconds(50);
  cfg.protocols = {Protocol::kUdp};
  const auto client_addr = s.network->allocate_host_address(1);
  ProbeClientHost client(*s.network, client_addr, cfg, seed + 1);
  EXPECT_TRUE(s.network->attach_host(client_addr, &client));
  client.start();
  s.queue->run();
  if (stats_out != nullptr) *stats_out = s.network->middlebox_stats(2);

  std::string trace;
  char buf[32];
  for (double sample : client.report().rtt_ms.at(Protocol::kUdp).samples()) {
    std::snprintf(buf, sizeof buf, "%.17g,", sample);
    trace += buf;
  }
  const MiddleboxStats st = s.network->middlebox_stats(2);
  trace += " stats=" + std::to_string(st.inspected()) + "/" +
           std::to_string(st.dropped) + "/" +
           std::to_string(st.deprioritized) + "/" +
           std::to_string(st.mangled) + "/" + std::to_string(st.exempted);
  return trace;
}

TEST(MiddleboxNetwork, AppliesPolicyAndCountsGroundTruth) {
  ClassPolicy slow;
  slow.extra_delay_ms = 20.0;
  MiddleboxPlan plan;
  plan.policy_all(slow);
  MiddleboxStats stats;
  middlebox_run_trace(404, plan, &stats);
  // Every probe (and its echo) crossed AS2, and despite the innocent
  // port each one's low-entropy payload classified as measurement:
  // 30 each way.
  EXPECT_EQ(stats.classified[static_cast<std::size_t>(
                TrafficClass::kMeasurement)],
            60u);
  EXPECT_EQ(stats.inspected(), 60u);
  EXPECT_EQ(stats.deprioritized, 60u);
  EXPECT_EQ(stats.dropped, 0u);

  // An empty middlebox AS reports zeroed stats.
  Scenario s = build_chain_scenario(3, 1, 5.0);
  EXPECT_EQ(s.network->middlebox_stats(2).inspected(), 0u);
  // Installing on an unknown AS fails.
  EXPECT_FALSE(s.network->install_middlebox(99, plan).ok());
}

TEST(MiddleboxNetwork, DeterministicUnderEqualSeeds) {
  ClassPolicy chaos;
  chaos.drop_pm = 120.0;
  chaos.extra_delay_ms = 4.0;
  chaos.delay_jitter_ms = 1.0;
  chaos.mangle_pm = 80.0;
  MiddleboxPlan plan;
  plan.policy_all(chaos);
  const std::string first = middlebox_run_trace(777, plan);
  EXPECT_EQ(middlebox_run_trace(777, plan), first);
  EXPECT_NE(middlebox_run_trace(778, plan), first);
}

TEST(MiddleboxNetwork, ClearMiddleboxRestoresCleanForwarding) {
  Scenario s = build_chain_scenario(3, 5, 5.0);
  ClassPolicy harsh;
  harsh.drop_pm = 1000.0;
  MiddleboxPlan plan;
  plan.policy_all(harsh);
  ASSERT_TRUE(s.network->install_middlebox(2, plan).ok());
  s.network->clear_middlebox(2);

  const auto server_addr = s.network->allocate_host_address(3);
  EchoServerHost server(*s.network, server_addr);
  ASSERT_TRUE(s.network->attach_host(server_addr, &server));
  ProbeClientConfig cfg;
  cfg.server = server_addr;
  cfg.probe_count = 5;
  cfg.interval = duration::milliseconds(20);
  cfg.protocols = {Protocol::kUdp};
  const auto client_addr = s.network->allocate_host_address(1);
  ProbeClientHost client(*s.network, client_addr, cfg, 6);
  ASSERT_TRUE(s.network->attach_host(client_addr, &client));
  client.start();
  s.queue->run();
  EXPECT_EQ(client.report().received.at(Protocol::kUdp), 5u);
  EXPECT_EQ(s.network->middlebox_stats(2).inspected(), 0u);
}

}  // namespace
}  // namespace debuglet::simnet

namespace debuglet::core {
namespace {

simnet::MiddleboxPlan hiding_plan(const simnet::SimulatedNetwork& network,
                                  std::size_t ases, double delay_ms) {
  simnet::ClassPolicy slow;
  slow.extra_delay_ms = delay_ms;
  slow.drop_pm = 60.0;
  simnet::MiddleboxPlan plan;
  plan.policy_all(slow).recognize_probe_signatures(true);
  for (std::size_t as = 1; as <= ases; ++as) {
    const auto asn = static_cast<topology::AsNumber>(as);
    plan.recognize(
        network.topology().address_of(topology::InterfaceKey{asn, 1}));
    plan.recognize(
        network.topology().address_of(topology::InterfaceKey{asn, 2}));
  }
  return plan;
}

TEST(DiscriminationDetector, NamesTheHidingAsAndPassesHonestControl) {
  // Cheating network: AS3 gives recognized measurement traffic a clean
  // path and parks everything else in a 25 ms slow queue.
  simnet::Scenario cheat = simnet::build_chain_scenario(5, 42, 5.0);
  cheat.network->set_int_enabled(true);
  ASSERT_TRUE(cheat.network
                  ->install_middlebox(
                      3, hiding_plan(*cheat.network, 5, 25.0))
                  .ok());
  DiscriminationDetector detector(*cheat.network, 1, 5, 7);
  auto report = detector.run();
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_TRUE(report->detected);
  EXPECT_EQ(report->named_as(), 3u);
  EXPECT_GE(report->top_confidence(), 0.8);
  EXPECT_GT(report->suspects.front().residence_delta_ms, 20.0);
  EXPECT_GT(report->delay_delta_ms, 20.0);
  // The probe-like twins arrived unharmed — that is the point of hiding.
  EXPECT_EQ(report->probe_like.received, report->probe_like.sent);
  // Equal seeds render the identical trace (chaos replay contract).
  DiscriminationDetector replay_detector(*cheat.network, 1, 5, 7);
  // Note: allocate_host_address advances, so replay on a FRESH scenario.
  simnet::Scenario again = simnet::build_chain_scenario(5, 42, 5.0);
  again.network->set_int_enabled(true);
  ASSERT_TRUE(again.network
                  ->install_middlebox(
                      3, hiding_plan(*again.network, 5, 25.0))
                  .ok());
  DiscriminationDetector rerun(*again.network, 1, 5, 7);
  auto replay = rerun.run();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->trace(), report->trace());

  // Honest control: same chain, no middlebox — nothing to report.
  simnet::Scenario honest = simnet::build_chain_scenario(5, 42, 5.0);
  honest.network->set_int_enabled(true);
  DiscriminationDetector honest_detector(*honest.network, 1, 5, 7);
  auto clean = honest_detector.run();
  ASSERT_TRUE(clean.ok()) << clean.error_message();
  EXPECT_FALSE(clean->detected);
  EXPECT_LT(clean->top_confidence(), 0.5);
}

TEST(DiscriminationDetector, WithoutIntThePrefixScanStillNamesTheAs) {
  simnet::Scenario s = simnet::build_chain_scenario(5, 13, 5.0);
  // INT stays off: the sequential detector deploys twin streams to every
  // intermediate path AS, and the nearest prefix whose SPRT fires names
  // the discriminator — no residence evidence needed.
  ASSERT_TRUE(
      s.network->install_middlebox(3, hiding_plan(*s.network, 5, 25.0))
          .ok());
  DiscriminationDetector detector(*s.network, 1, 5, 7);
  auto report = detector.run();
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_TRUE(report->detected);
  EXPECT_EQ(report->named_as(), 3u);
  EXPECT_GE(report->top_confidence(), 0.8);
  EXPECT_LE(report->rounds_used, 40u);
  EXPECT_EQ(report->decision.rfind("h1", 0), 0u) << report->decision;
}

// The ISSUE's acceptance scenario: a fault-hiding AS conceals its slow
// queue from the executor-pair localization (which sees a clean path),
// and the twin-probe discrimination pass wired into the localizer names
// that AS instead of letting it pass silently.
TEST(DiscriminationDetector, LocalizerFlagsFaultHidingAs) {
  DebugletSystem system(simnet::build_chain_scenario(6, 2024, 5.0));
  constexpr topology::AsNumber kCheat = 3;
  ASSERT_TRUE(system.network()
                  .install_middlebox(
                      kCheat, hiding_plan(system.network(), 6, 30.0))
                  .ok());
  Initiator initiator(system, 31415, 2'000'000'000'000ULL);
  auto path = system.network().topology().shortest_path(1, 6);
  ASSERT_TRUE(path.ok());
  FaultCriteria criteria;
  criteria.per_link_rtt_ms = 10.5;
  criteria.slack_ms = 15.0;
  FaultLocalizer localizer(system, initiator, *path, criteria,
                           net::Protocol::kUdp, 8, 100);
  localizer.set_discrimination_probe([&]() {
    system.network().set_int_enabled(true);
    DiscriminationDetector detector(system.network(), 1, 6, 99);
    auto twins = detector.run();
    system.network().set_int_enabled(false);
    return twins;
  });
  auto report = localizer.run(Strategy::kLinearSequential);
  ASSERT_TRUE(report.ok()) << report.error_message();
  // The executor probes ride the exempt fast path: no fault to see.
  EXPECT_FALSE(report->located);
  // But the twin probes caught the AS discriminating.
  ASSERT_FALSE(report->discrimination.empty());
  EXPECT_EQ(report->discrimination.front().asn, kCheat);
  EXPECT_GE(report->discrimination.front().confidence, 0.8);
  bool noted = false;
  for (const std::string& note : report->notes)
    noted |= note.find("fault hiding suspected") != std::string::npos;
  EXPECT_TRUE(noted);

  // Control: an honest network with the same probe reports nothing.
  DebugletSystem honest(simnet::build_chain_scenario(6, 2024, 5.0));
  Initiator honest_initiator(honest, 31415, 2'000'000'000'000ULL);
  FaultLocalizer honest_localizer(honest, honest_initiator, *path, criteria,
                                  net::Protocol::kUdp, 8, 100);
  honest_localizer.set_discrimination_probe([&]() {
    honest.network().set_int_enabled(true);
    DiscriminationDetector detector(honest.network(), 1, 6, 99);
    auto twins = detector.run();
    honest.network().set_int_enabled(false);
    return twins;
  });
  auto clean = honest_localizer.run(Strategy::kLinearSequential);
  ASSERT_TRUE(clean.ok()) << clean.error_message();
  EXPECT_FALSE(clean->located);
  EXPECT_TRUE(clean->discrimination.empty());
  for (const std::string& note : clean->notes)
    EXPECT_EQ(note.find("discriminat"), std::string::npos) << note;
}

}  // namespace
}  // namespace debuglet::core
