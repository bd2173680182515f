// Wire-level chaos: LinkFaultPlan semantics, the damaged-delivery receive
// path (checksum rejection, typed parse errors, obs counters), probe-sample
// integrity filtering, and the end-to-end acceptance scenario — fault
// localization still brackets the injected link while every segment's
// frames are being corrupted, duplicated and reordered.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "core/initiator.hpp"
#include "core/localization.hpp"
#include "core/system.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "simnet/link_faults.hpp"
#include "simnet/scenarios.hpp"
#include "telemetry/int_header.hpp"

namespace debuglet {
namespace {

using simnet::FaultWindow;
using simnet::LinkFaultPlan;
using simnet::LinkIntegrityStats;
using simnet::WireDamage;

// --- WireDamage: pure, deterministic, bounded --------------------------------

TEST(WireDamage, CorruptionIsAPureFunctionOfTheRecord) {
  const Bytes original(64, 0xAA);
  WireDamage damage;
  damage.kind = WireDamage::Kind::kCorrupt;
  damage.seed = 0x1234ABCDULL;
  damage.bit_flips = 5;
  Bytes a = original, b = original;
  apply_wire_damage(a, damage);
  apply_wire_damage(b, damage);
  EXPECT_EQ(a, b) << "same record must damage identically";
  EXPECT_NE(a, original);
  // The xor-diff flips at most bit_flips bits (collisions may unflip).
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < original.size(); ++i)
    flipped += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(a[i] ^ original[i])));
  EXPECT_LE(flipped, 5u);
  EXPECT_GE(flipped, 1u);
}

TEST(WireDamage, SingleBitFlipFlipsExactlyOneBit) {
  const Bytes original(40, 0x00);
  WireDamage damage;
  damage.kind = WireDamage::Kind::kCorrupt;
  damage.seed = 99;
  damage.bit_flips = 1;
  Bytes wire = original;
  apply_wire_damage(wire, damage);
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < original.size(); ++i)
    flipped += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(wire[i] ^ original[i])));
  EXPECT_EQ(flipped, 1u);
}

TEST(WireDamage, TruncationChopsAndNeverGrows) {
  Bytes wire(50, 0x11);
  WireDamage damage;
  damage.kind = WireDamage::Kind::kTruncate;
  damage.truncate_to = 7;
  apply_wire_damage(wire, damage);
  EXPECT_EQ(wire.size(), 7u);
  damage.truncate_to = 100;  // longer than the frame: no-op
  apply_wire_damage(wire, damage);
  EXPECT_EQ(wire.size(), 7u);
}

TEST(WireDamage, NoneIsANoOp) {
  Bytes wire(10, 0x42);
  const Bytes before = wire;
  apply_wire_damage(wire, WireDamage{});
  EXPECT_EQ(wire, before);
}

// --- LinkFaultPlan semantics -------------------------------------------------

TEST(LinkFaultPlan, EmptyUntilAnyFaultConfigured) {
  LinkFaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.reorder(10.0, 5.0);
  EXPECT_FALSE(plan.empty());
  LinkFaultPlan flap_only;
  flap_only.flap(0, duration::seconds(1));
  EXPECT_FALSE(flap_only.empty());
}

TEST(LinkFaultPlan, FlapWindowsAreHalfOpenAndUnioned) {
  LinkFaultPlan plan;
  plan.flap(duration::seconds(1), duration::seconds(2))
      .flap(duration::seconds(5), duration::seconds(6));
  EXPECT_FALSE(plan.flapped_at(0));
  EXPECT_TRUE(plan.flapped_at(duration::seconds(1)));
  EXPECT_FALSE(plan.flapped_at(duration::seconds(2)));  // end exclusive
  EXPECT_TRUE(plan.flapped_at(duration::milliseconds(5500)));
  EXPECT_FALSE(plan.flapped_at(duration::seconds(7)));
}

TEST(LinkFaultPlan, WindowScopesEachFault) {
  const FaultWindow early{0, duration::seconds(1)};
  LinkFaultPlan plan;
  plan.corrupt(1000.0, 4, early);
  EXPECT_TRUE(plan.corruption().window.active_at(0));
  EXPECT_FALSE(plan.corruption().window.active_at(duration::seconds(2)));
  EXPECT_EQ(plan.corruption().max_bit_flips, 4u);
}

// --- Network-level semantics through a 3-AS chain ----------------------------

struct CountingHost : simnet::Host {
  void on_packet(const simnet::Delivery& delivery) override {
    ++received;
    arrivals.push_back(delivery.received_at);
    payload_bytes += delivery.packet.payload.size();
    payloads.push_back(delivery.packet.payload);
  }
  int received = 0;
  std::size_t payload_bytes = 0;
  std::vector<SimTime> arrivals;
  std::vector<Bytes> payloads;
};

struct LinkFaultNetFixture : ::testing::Test {
  LinkFaultNetFixture() : scenario(simnet::build_chain_scenario(3, 77, 5.0)) {
    sender_addr = scenario.network->allocate_host_address(1);
    receiver_addr = scenario.network->allocate_host_address(3);
    EXPECT_TRUE(scenario.network->attach_host(sender_addr, &sender).ok());
    EXPECT_TRUE(scenario.network->attach_host(receiver_addr, &receiver).ok());
  }

  Status send_probe(std::uint16_t sequence) {
    net::ProbeSpec spec;
    spec.source = sender_addr;
    spec.destination = receiver_addr;
    spec.source_port = 40001;
    spec.destination_port = 40002;
    spec.sequence = sequence;
    spec.payload = bytes_of("0123456789abcdef");
    auto wire = net::build_probe(spec);
    if (!wire) return wire.error();
    return scenario.network->send(sender_addr, std::move(*wire));
  }

  Status install_first_link(const LinkFaultPlan& plan) {
    return scenario.network->install_link_faults(
        simnet::chain_egress(0), simnet::chain_ingress(1), plan);
  }
  LinkIntegrityStats first_link_integrity() const {
    return scenario.network->link_integrity(simnet::chain_egress(0),
                                            simnet::chain_ingress(1));
  }
  std::uint64_t rejected_total() const {
    std::uint64_t total = 0;
    for (const obs::MetricRow& row : obs::registry().snapshot())
      if (row.name == "net.parse_rejected")
        total += static_cast<std::uint64_t>(row.value);
    return total;
  }

  obs::ScopedRegistry scoped;  // before the network: handles are cached
  simnet::Scenario scenario;
  net::Ipv4Address sender_addr, receiver_addr;
  CountingHost sender, receiver;
};

TEST_F(LinkFaultNetFixture, CertainCorruptionIsAlwaysCaughtOrDelivered) {
  // 100% corruption on the first link: every frame is damaged. The
  // receive path re-parses the wire — header damage is rejected by the
  // checksums (typed + counted), payload-only damage still delivers.
  LinkFaultPlan plan;
  plan.corrupt(1000.0, 2);
  ASSERT_TRUE(install_first_link(plan).ok());
  const int sent = 40;
  for (int i = 0; i < sent; ++i) {
    ASSERT_TRUE(send_probe(static_cast<std::uint16_t>(i)).ok());
    scenario.queue->run();
  }
  const LinkIntegrityStats integrity = first_link_integrity();
  EXPECT_EQ(integrity.corrupted, static_cast<std::uint64_t>(sent));
  // Chain links are lossless, so every frame is either rejected at the
  // receiver or delivered (with possibly damaged payload bytes).
  EXPECT_EQ(static_cast<std::uint64_t>(receiver.received) + rejected_total(),
            static_cast<std::uint64_t>(sent));
  EXPECT_GT(rejected_total(), 0u) << "some flips must land in headers";
  EXPECT_EQ(scoped.get()
                .counter("simnet.wire_faults", {{"kind", "corrupt"}})
                .value(),
            static_cast<std::uint64_t>(sent));
}

TEST_F(LinkFaultNetFixture, TruncationYieldsTypedRejections) {
  LinkFaultPlan plan;
  plan.truncate(1000.0);
  ASSERT_TRUE(install_first_link(plan).ok());
  const int sent = 20;
  for (int i = 0; i < sent; ++i)
    ASSERT_TRUE(send_probe(static_cast<std::uint16_t>(i)).ok());
  scenario.queue->run();
  // A chopped frame can never parse: the IPv4 header is either physically
  // truncated or its total_length now exceeds the frame.
  EXPECT_EQ(receiver.received, 0);
  EXPECT_EQ(rejected_total(), static_cast<std::uint64_t>(sent));
  std::uint64_t typed = 0;
  for (const char* reason : {"truncated_header", "frame_truncated"})
    typed += static_cast<std::uint64_t>(
        scoped.get()
            .counter("net.parse_rejected", {{"reason", reason}})
            .value());
  EXPECT_EQ(typed, static_cast<std::uint64_t>(sent))
      << "truncation rejections must carry the truncation-typed reasons";
}

TEST_F(LinkFaultNetFixture, DuplicationDeliversIndependentCopies) {
  LinkFaultPlan plan;
  plan.duplicate(1000.0, 1);  // every packet: exactly one extra copy
  ASSERT_TRUE(install_first_link(plan).ok());
  const int sent = 10;
  for (int i = 0; i < sent; ++i)
    ASSERT_TRUE(send_probe(static_cast<std::uint16_t>(i)).ok());
  scenario.queue->run();
  EXPECT_EQ(receiver.received, 2 * sent);
  EXPECT_EQ(first_link_integrity().duplicated,
            static_cast<std::uint64_t>(sent));
}

TEST_F(LinkFaultNetFixture, ReorderingDelaysButDelivers) {
  LinkFaultPlan plan;
  plan.reorder(1000.0, 50.0);
  ASSERT_TRUE(install_first_link(plan).ok());
  ASSERT_TRUE(send_probe(1).ok());
  scenario.queue->run();
  ASSERT_EQ(receiver.received, 1);
  EXPECT_EQ(first_link_integrity().reordered, 1u);

  // Against an un-faulted baseline the held-back frame arrives later.
  simnet::Scenario baseline = simnet::build_chain_scenario(3, 77, 5.0);
  CountingHost base_rx;
  const auto base_src = baseline.network->allocate_host_address(1);
  const auto base_dst = baseline.network->allocate_host_address(3);
  ASSERT_TRUE(baseline.network->attach_host(base_src, &base_rx).ok());
  ASSERT_TRUE(baseline.network->attach_host(base_dst, &base_rx).ok());
  net::ProbeSpec spec;
  spec.source = base_src;
  spec.destination = base_dst;
  spec.source_port = 40001;
  spec.destination_port = 40002;
  spec.sequence = 1;
  spec.payload = bytes_of("0123456789abcdef");
  auto wire = net::build_probe(spec);
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(baseline.network->send(base_src, std::move(*wire)).ok());
  baseline.queue->run();
  ASSERT_EQ(base_rx.received, 1);
  EXPECT_GT(receiver.arrivals[0], base_rx.arrivals[0]);
}

TEST_F(LinkFaultNetFixture, FlapIsATimedDirectedPartition) {
  LinkFaultPlan plan;
  plan.flap(0, duration::seconds(1));
  ASSERT_TRUE(install_first_link(plan).ok());

  ASSERT_TRUE(send_probe(1).ok());  // during the flap: dropped
  scenario.queue->run();
  EXPECT_EQ(receiver.received, 0);
  EXPECT_EQ(first_link_integrity().flap_dropped, 1u);

  // The REVERSE direction carries no plan — asymmetric partition.
  net::ProbeSpec reply;
  reply.source = receiver_addr;
  reply.destination = sender_addr;
  reply.source_port = 40002;
  reply.destination_port = 40001;
  auto wire = net::build_probe(reply);
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(scenario.network->send(receiver_addr, std::move(*wire)).ok());
  scenario.queue->run();
  EXPECT_EQ(sender.received, 1);

  // Past the window the link heals.
  scenario.queue->run_until(duration::seconds(2));
  ASSERT_TRUE(send_probe(2).ok());
  scenario.queue->run();
  EXPECT_EQ(receiver.received, 1);
  EXPECT_EQ(first_link_integrity().flap_dropped, 1u);
}

TEST_F(LinkFaultNetFixture, InstallValidatesAndClearRestores) {
  // Unconfigured links are rejected.
  EXPECT_FALSE(scenario.network
                   ->install_link_faults(topology::InterfaceKey{1, 9},
                                         topology::InterfaceKey{3, 9},
                                         LinkFaultPlan{}.truncate(1000.0))
                   .ok());
  LinkFaultPlan plan;
  plan.truncate(1000.0);
  ASSERT_TRUE(install_first_link(plan).ok());
  ASSERT_TRUE(scenario.network
                  ->clear_link_faults(simnet::chain_egress(0),
                                      simnet::chain_ingress(1))
                  .ok());
  ASSERT_TRUE(send_probe(1).ok());
  scenario.queue->run();
  EXPECT_EQ(receiver.received, 1) << "cleared plan must stop damaging";
}

// --- Determinism: equal seeds, equal damage ----------------------------------

struct ChaosRunRecord {
  std::vector<SimTime> arrivals;
  std::size_t payload_bytes = 0;
  int received = 0;
  LinkIntegrityStats forward;
};

ChaosRunRecord run_damaged_exchange(std::uint64_t seed) {
  obs::ScopedRegistry scoped;
  simnet::Scenario scenario = simnet::build_chain_scenario(3, seed, 5.0);
  CountingHost sender, receiver;
  const auto src = scenario.network->allocate_host_address(1);
  const auto dst = scenario.network->allocate_host_address(3);
  EXPECT_TRUE(scenario.network->attach_host(src, &sender).ok());
  EXPECT_TRUE(scenario.network->attach_host(dst, &receiver).ok());
  LinkFaultPlan plan;
  plan.corrupt(300.0, 6).duplicate(300.0, 2).reorder(300.0, 20.0);
  EXPECT_TRUE(scenario.network
                  ->install_link_faults(simnet::chain_egress(0),
                                        simnet::chain_ingress(1), plan)
                  .ok());
  for (int i = 0; i < 30; ++i) {
    net::ProbeSpec spec;
    spec.source = src;
    spec.destination = dst;
    spec.source_port = 40001;
    spec.destination_port = 40002;
    spec.sequence = static_cast<std::uint16_t>(i);
    spec.payload = bytes_of("0123456789abcdef");
    auto wire = net::build_probe(spec);
    EXPECT_TRUE(wire.ok());
    EXPECT_TRUE(scenario.network->send(src, std::move(*wire)).ok());
    scenario.queue->run();
  }
  ChaosRunRecord out;
  out.arrivals = receiver.arrivals;
  out.payload_bytes = receiver.payload_bytes;
  out.received = receiver.received;
  out.forward = scenario.network->link_integrity(simnet::chain_egress(0),
                                                 simnet::chain_ingress(1));
  return out;
}

TEST(LinkFaultDeterminism, EqualSeedsDamageIdentically) {
  const ChaosRunRecord a = run_damaged_exchange(4242);
  const ChaosRunRecord b = run_damaged_exchange(4242);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.forward.corrupted, b.forward.corrupted);
  EXPECT_EQ(a.forward.duplicated, b.forward.duplicated);
  EXPECT_EQ(a.forward.reordered, b.forward.reordered);
  EXPECT_GT(a.forward.total(), 0u) << "the chaos must actually fire";

  const ChaosRunRecord c = run_damaged_exchange(4243);
  EXPECT_NE(a.arrivals, c.arrivals)
      << "different seeds must produce different worlds";
}

TEST(LinkFaultDeterminism, EmptyPlanLeavesLegacyStreamUntouched) {
  // Installing an empty plan must not perturb the healthy delivery
  // schedule: the fault layer draws no RNG on links without live faults.
  obs::ScopedRegistry scoped;
  const auto run = [](bool install_empty_plan, CountingHost& rx) {
    simnet::Scenario scenario = simnet::build_chain_scenario(3, 5150, 5.0);
    const auto src = scenario.network->allocate_host_address(1);
    const auto dst = scenario.network->allocate_host_address(3);
    ASSERT_TRUE(scenario.network->attach_host(dst, &rx).ok());
    if (install_empty_plan) {
      ASSERT_TRUE(scenario.network
                      ->install_link_faults(simnet::chain_egress(0),
                                            simnet::chain_ingress(1),
                                            LinkFaultPlan{}.flap(5, 3))
                      .ok());
    }
    for (int i = 0; i < 10; ++i) {
      net::ProbeSpec spec;
      spec.source = src;
      spec.destination = dst;
      spec.source_port = 40001;
      spec.destination_port = 40002;
      spec.sequence = static_cast<std::uint16_t>(i);
      auto wire = net::build_probe(spec);
      ASSERT_TRUE(wire.ok());
      ASSERT_TRUE(scenario.network->send(src, std::move(*wire)).ok());
    }
    scenario.queue->run();
  };
  CountingHost rx_plain, rx_installed;
  run(false, rx_plain);
  run(true, rx_installed);
  ASSERT_EQ(rx_plain.received, 10);
  EXPECT_EQ(rx_plain.arrivals, rx_installed.arrivals);
}

// --- Probe-sample integrity filtering (core/initiator) -----------------------

apps::MeasurementSample sample(std::uint64_t seq, std::int64_t delay_ns) {
  apps::MeasurementSample s;
  s.sequence = seq;
  s.delay_ns = delay_ns;
  return s;
}

TEST(FilterProbeSamples, DeduplicatesBySequenceKeepingSmallestRtt) {
  auto out = core::filter_probe_samples(
      {sample(1, 5'000'000), sample(2, 6'000'000), sample(1, 9'000'000),
       sample(2, 6'500'000)});
  ASSERT_EQ(out.kept.size(), 2u);
  EXPECT_EQ(out.duplicates_dropped, 2u);
  EXPECT_EQ(out.kept[0].delay_ns, 5'000'000);
  EXPECT_EQ(out.kept[1].delay_ns, 6'000'000);
}

TEST(FilterProbeSamples, DropsNegativeAndImplausibleRtts) {
  // Median 5 ms; 81 ms < 16 x median survives, 100 ms does not... with a
  // 16x factor the cut is at 80 ms.
  auto out = core::filter_probe_samples(
      {sample(1, 5'000'000), sample(2, 5'000'000), sample(3, 5'000'000),
       sample(4, -2'000'000), sample(5, 100'000'000)});
  ASSERT_EQ(out.kept.size(), 3u);
  EXPECT_EQ(out.outliers_dropped, 2u);
  EXPECT_EQ(out.duplicates_dropped, 0u);
}

TEST(FilterProbeSamples, GenuineFaultShiftsTheMedianAndSurvives) {
  // Every sample is slow (a real link fault): the median moves with the
  // batch, so nothing is filtered.
  auto out = core::filter_probe_samples(
      {sample(1, 80'000'000), sample(2, 82'000'000), sample(3, 85'000'000),
       sample(4, 90'000'000)});
  EXPECT_EQ(out.kept.size(), 4u);
  EXPECT_EQ(out.outliers_dropped, 0u);
}

TEST(FilterProbeSamples, SmallBatchesKeepTheirOutliers) {
  // Under 3 samples there is no trustworthy median; only negatives drop.
  auto out = core::filter_probe_samples(
      {sample(1, 1'000'000), sample(2, 500'000'000)});
  EXPECT_EQ(out.kept.size(), 2u);
}

// --- Acceptance: localization under full wire chaos --------------------------

TEST(LinkFaultLocalization, BracketsInjectedFaultUnderWireChaos) {
  // Corruption + duplication + reordering on EVERY directed inter-domain
  // link, plus the classic 60 ms delay fault on link 1. The hardened
  // pipeline (checksum rejection, sample dedup, outlier filtering, loss
  // tolerance) must still localize the delay fault.
  obs::ScopedRegistry scoped;
  constexpr std::size_t kAses = 4;
  core::DebugletSystem system(simnet::build_chain_scenario(kAses, 909, 5.0));
  core::Initiator initiator(system, 910, 2'000'000'000'000ULL);

  simnet::FaultSpec fault;
  fault.extra_delay_ms = 60.0;
  fault.start = 0;
  fault.end = duration::hours(100);
  ASSERT_TRUE(system.network()
                  .inject_fault(simnet::chain_egress(1),
                                simnet::chain_ingress(2), fault)
                  .ok());
  ASSERT_TRUE(system.network()
                  .inject_fault(simnet::chain_ingress(2),
                                simnet::chain_egress(1), fault)
                  .ok());

  LinkFaultPlan plan;
  plan.corrupt(50.0, 4).duplicate(50.0, 1).reorder(80.0, 8.0);
  for (std::size_t i = 0; i + 1 < kAses; ++i) {
    ASSERT_TRUE(system.network()
                    .install_link_faults(simnet::chain_egress(i),
                                         simnet::chain_ingress(i + 1), plan)
                    .ok());
    ASSERT_TRUE(system.network()
                    .install_link_faults(simnet::chain_ingress(i + 1),
                                         simnet::chain_egress(i), plan)
                    .ok());
  }

  auto path = system.network().topology().shortest_path(1, kAses);
  ASSERT_TRUE(path.ok());
  core::FaultCriteria criteria;
  criteria.per_link_rtt_ms = 10.5;
  criteria.slack_ms = 15.0;
  criteria.max_loss = 0.5;  // corruption-induced loss hits every segment
  core::FaultLocalizer localizer(system, initiator, *path, criteria,
                                 net::Protocol::kUdp, 8, 100);
  auto report = localizer.run(core::Strategy::kLinearSequential);
  ASSERT_TRUE(report.ok()) << report.error_message();
  ASSERT_TRUE(report->located) << "delay fault lost in the wire chaos";
  EXPECT_LE(report->fault_link, 1u);
  EXPECT_GE(report->fault_link_hi, 1u);

  // The per-segment delivery-integrity evidence shows the chaos was real.
  LinkIntegrityStats evidence;
  for (const core::LocalizationStep& step : report->steps)
    evidence += step.wire_integrity;
  EXPECT_GT(evidence.total(), 0u)
      << "wire chaos never fired; the scenario is vacuous";
}

// --- In-band telemetry under wire chaos --------------------------------------

TEST_F(LinkFaultNetFixture, CorruptedIntStacksAreRejectedTyped) {
  // Certain corruption on the first link while INT is collecting: damage
  // the L3 checksums miss lands in the INT block, where the trailing
  // digest catches it — a typed rejection, never a crash and never
  // trusted evidence.
  scenario.network->set_int_enabled(true);
  LinkFaultPlan plan;
  plan.corrupt(1000.0, 2);
  ASSERT_TRUE(install_first_link(plan).ok());
  const int sent = 40;
  for (int i = 0; i < sent; ++i) {
    net::ProbeSpec spec;
    spec.source = sender_addr;
    spec.destination = receiver_addr;
    spec.source_port = 40001;
    spec.destination_port = 40002;
    spec.sequence = static_cast<std::uint16_t>(i);
    spec.payload = telemetry::IntHeader::reserve(2).serialize();
    auto wire = net::build_probe(spec);
    ASSERT_TRUE(wire.ok());
    ASSERT_TRUE(scenario.network->send(sender_addr, std::move(*wire)).ok());
    scenario.queue->run();
  }
  // Every frame carried (and accumulated) INT records before the damage.
  EXPECT_EQ(scoped.get().counter("telemetry.int_pushes").value(),
            static_cast<std::uint64_t>(2 * sent));
  int intact = 0, rejected_digest = 0, rejected_other = 0;
  for (const Bytes& payload : receiver.payloads) {
    telemetry::IntParseError kind = telemetry::IntParseError::kNone;
    auto parsed = telemetry::IntHeader::parse(
        BytesView(payload.data(), payload.size()), &kind);
    if (parsed.ok())
      ++intact;
    else if (kind == telemetry::IntParseError::kDigestMismatch)
      ++rejected_digest;
    else
      ++rejected_other;
  }
  EXPECT_GT(rejected_digest, 0)
      << "payload-only corruption must be caught by the INT digest";
  EXPECT_EQ(intact + rejected_digest + rejected_other,
            receiver.received)
      << "every delivery classifies; none crashes the parser";
}

TEST(IntChaosLocalization, InbandDegradesToBinarySearchNeverMislocalizes) {
  // The in-band round runs into certain truncation on the first link
  // (windowed over the round), so no intact evidence arrives; the
  // strategy must fall back to purchased binary search and still pin the
  // 60 ms delay fault on link 1 — degraded, never wrong.
  obs::ScopedRegistry scoped;
  constexpr std::size_t kAses = 4;
  core::DebugletSystem system(simnet::build_chain_scenario(kAses, 616, 5.0));
  core::Initiator initiator(system, 617, 2'000'000'000'000ULL);

  simnet::FaultSpec fault;
  fault.extra_delay_ms = 60.0;
  fault.start = 0;
  fault.end = duration::hours(100);
  ASSERT_TRUE(system.network()
                  .inject_fault(simnet::chain_egress(1),
                                simnet::chain_ingress(2), fault)
                  .ok());
  ASSERT_TRUE(system.network()
                  .inject_fault(simnet::chain_ingress(2),
                                simnet::chain_egress(1), fault)
                  .ok());
  LinkFaultPlan plan;
  plan.truncate(1000.0, FaultWindow{0, duration::milliseconds(500)});
  ASSERT_TRUE(system.network()
                  .install_link_faults(simnet::chain_egress(0),
                                       simnet::chain_ingress(1), plan)
                  .ok());

  auto path = system.network().topology().shortest_path(1, kAses);
  ASSERT_TRUE(path.ok());
  core::FaultCriteria criteria;
  criteria.per_link_rtt_ms = 10.5;
  criteria.slack_ms = 15.0;
  criteria.max_loss = 0.5;
  core::FaultLocalizer localizer(system, initiator, *path, criteria,
                                 net::Protocol::kUdp, 8, 100);
  auto report = localizer.run(core::Strategy::kInband);
  ASSERT_TRUE(report.ok()) << report.error_message();
  ASSERT_TRUE(report->located) << "fallback search must still locate";
  EXPECT_EQ(report->fault_link, 1u);
  EXPECT_GE(report->measurements, 3u)
      << "the verdict must come from the purchased fallback rounds";
  bool noted_fallback = false;
  for (const std::string& note : report->notes)
    noted_fallback |= note.find("falling back") != std::string::npos;
  EXPECT_TRUE(noted_fallback)
      << "the degradation must be reported, not silent";
  EXPECT_GT(report->tokens_spent, 0u);
}

}  // namespace
}  // namespace debuglet
