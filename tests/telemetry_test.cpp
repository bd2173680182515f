// In-band path telemetry: IntHeader wire discipline, PathEvidence
// validation, record accumulation through the simulated network, and the
// O(1) in-band localization strategy.
#include <gtest/gtest.h>

#include <vector>

#include "core/initiator.hpp"
#include "core/localization.hpp"
#include "core/system.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "simnet/scenarios.hpp"
#include "telemetry/int_header.hpp"
#include "telemetry/path_evidence.hpp"

namespace debuglet {
namespace {

using telemetry::HopRecord;
using telemetry::IntHeader;
using telemetry::IntParseError;

HopRecord make_record(std::uint32_t asn, std::uint64_t ingress_ns,
                      std::uint64_t egress_ns) {
  HopRecord rec;
  rec.asn = asn;
  rec.ingress_interface = 1;
  rec.egress_interface = 2;
  rec.ingress_ns = ingress_ns;
  rec.egress_ns = egress_ns;
  rec.queue_depth = 3;
  rec.drops_seen = 7;
  rec.wire_faults = 11;
  return rec;
}

// Recomputes the trailing FNV-1a digest of a serialized INT block after a
// test edits its bytes.
void reseal(Bytes& wire) {
  const std::uint64_t digest = fnv1a(BytesView(wire.data(), wire.size() - 8));
  for (std::size_t i = 0; i < 8; ++i)
    wire[wire.size() - 8 + i] = static_cast<std::uint8_t>(digest >> (8 * i));
}

// An empty 3-hop block whose flag bits and reserved block (byte 8 and
// bytes 12..43) all differ from reserve()'s, the pad bytes 9..11 left zero.
Bytes block_with_reserved_bytes_set() {
  Bytes wire = IntHeader::reserve(3).serialize();
  wire[5] = 0xFD;  // every flag bit but TRUNCATED
  wire[8] = 1;
  for (std::size_t i = 12; i < 44; ++i)
    wire[i] = static_cast<std::uint8_t>(7 * i + 1);
  reseal(wire);
  return wire;
}

// --- IntHeader wire discipline -----------------------------------------------

TEST(IntHeader, RoundTripsRecords) {
  IntHeader header = IntHeader::reserve(5);
  ASSERT_TRUE(header.push(make_record(100, 1'000, 2'000)));
  ASSERT_TRUE(header.push(make_record(200, 3'000, 4'000)));

  const Bytes wire = header.serialize();
  ASSERT_EQ(wire.size(), IntHeader::wire_size(5));

  IntParseError kind = IntParseError::kNone;
  auto parsed = IntHeader::parse(BytesView(wire.data(), wire.size()), &kind);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  EXPECT_EQ(kind, IntParseError::kNone);
  EXPECT_EQ(parsed->hop_count(), 2);
  EXPECT_EQ(parsed->max_hops(), 5);
  EXPECT_EQ(parsed->record(0), header.record(0));
  EXPECT_EQ(parsed->record(1), header.record(1));
  EXPECT_EQ(*parsed, header);
}

TEST(IntHeader, ReservedBytesAndFlagBitsRoundTripByteForByte) {
  // reserve() sets no flag bit and writes 0xFF, then zeros.
  const Bytes fresh = IntHeader::reserve(3).serialize();
  EXPECT_EQ(fresh[5], 0);
  EXPECT_EQ(fresh[8], 0xFF);
  for (std::size_t i = 9; i < 44; ++i) EXPECT_EQ(fresh[i], 0) << "byte " << i;

  const Bytes wire = block_with_reserved_bytes_set();
  auto parsed = IntHeader::parse(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  EXPECT_FALSE(parsed->truncated());
  EXPECT_EQ(parsed->serialize(), wire);
}

TEST(IntHeader, WireSizeIsFixedRegardlessOfPushes) {
  IntHeader header = IntHeader::reserve(4);
  const std::size_t empty_size = header.serialize().size();
  header.push(make_record(1, 1, 2));
  header.push(make_record(2, 3, 4));
  EXPECT_EQ(header.serialize().size(), empty_size)
      << "pushing records must never change the frame length in flight";
}

TEST(IntHeader, TruncationLatchesInsteadOfGrowing) {
  IntHeader header = IntHeader::reserve(2);
  EXPECT_TRUE(header.push(make_record(1, 1, 2)));
  EXPECT_TRUE(header.push(make_record(2, 3, 4)));
  EXPECT_FALSE(header.truncated());
  EXPECT_FALSE(header.push(make_record(3, 5, 6)));
  EXPECT_TRUE(header.truncated());
  EXPECT_EQ(header.hop_count(), 2);
  // The latch survives serialization.
  const Bytes wire = header.serialize();
  auto parsed = IntHeader::parse(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->truncated());
}

TEST(IntHeader, ReserveClampsTheHopBudget) {
  EXPECT_EQ(IntHeader::reserve(0).max_hops(), 1);
  EXPECT_EQ(IntHeader::reserve(255).max_hops(), IntHeader::kMaxHopsLimit);
}

TEST(IntHeader, ParseRejectsWithTypedErrors) {
  IntHeader header = IntHeader::reserve(3);
  header.push(make_record(5, 10, 20));
  Bytes wire = header.serialize();

  IntParseError kind = IntParseError::kNone;
  // Truncated buffer.
  EXPECT_FALSE(
      IntHeader::parse(BytesView(wire.data(), wire.size() - 9), &kind).ok());
  EXPECT_EQ(kind, IntParseError::kTruncated);
  // Damaged record stack: flip a byte inside the first record.
  Bytes damaged = wire;
  damaged[50] ^= 0xFF;
  EXPECT_FALSE(
      IntHeader::parse(BytesView(damaged.data(), damaged.size()), &kind).ok());
  EXPECT_EQ(kind, IntParseError::kDigestMismatch);
  // Wrong magic.
  Bytes not_int = wire;
  not_int[0] ^= 0x01;
  EXPECT_FALSE(IntHeader::looks_like_int(
      BytesView(not_int.data(), not_int.size())));
  EXPECT_FALSE(
      IntHeader::parse(BytesView(not_int.data(), not_int.size()), &kind).ok());
  EXPECT_EQ(kind, IntParseError::kBadMagic);
  // Unknown version.
  Bytes bad_version = wire;
  bad_version[4] = 99;
  EXPECT_FALSE(
      IntHeader::parse(BytesView(bad_version.data(), bad_version.size()),
                       &kind)
          .ok());
  EXPECT_EQ(kind, IntParseError::kBadVersion);
  // Impossible hop accounting: hop_count > max_hops (re-digested so only
  // the bounds check can reject).
  Bytes bad_hops = wire;
  bad_hops[7] = 200;
  reseal(bad_hops);
  EXPECT_FALSE(
      IntHeader::parse(BytesView(bad_hops.data(), bad_hops.size()), &kind)
          .ok());
  EXPECT_EQ(kind, IntParseError::kBadHopCount);

  EXPECT_TRUE(IntHeader::looks_like_int(BytesView(wire.data(), wire.size())));
}

TEST(IntHeader, ParseIgnoresTrailingPayloadBytes) {
  IntHeader header = IntHeader::reserve(2);
  Bytes wire = header.serialize();
  wire.push_back(0xAB);
  wire.push_back(0xCD);
  auto parsed = IntHeader::parse(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  EXPECT_EQ(*parsed, header);
}

// --- PathEvidence validation -------------------------------------------------

topology::AsPath three_link_path() {
  topology::AsPath path;
  path.hops = {{1, 0, 2}, {2, 1, 2}, {3, 1, 2}, {4, 1, 0}};
  return path;
}

TEST(PathEvidence, ComputesPerLinkLatenciesFromTimestamps) {
  const topology::AsPath path = three_link_path();
  const SimTime sent_at = 1'000'000;  // 1 ms into the scenario
  IntHeader header = IntHeader::reserve(3);
  // 5 ms crossings, 0.5 ms residence inside AS2/AS3, none at the final AS.
  std::uint64_t t = static_cast<std::uint64_t>(sent_at);
  for (std::size_t k = 0; k < 3; ++k) {
    t += 5'000'000;  // link crossing
    HopRecord rec = make_record(static_cast<std::uint32_t>(k + 2), t, t);
    if (k < 2) rec.egress_ns = t + 500'000;
    t = rec.egress_ns;
    ASSERT_TRUE(header.push(rec));
  }
  auto evidence = telemetry::PathEvidence::from_header(header, path, sent_at);
  ASSERT_TRUE(evidence.ok()) << evidence.error_message();
  ASSERT_EQ(evidence->links(), 3u);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_NEAR(evidence->link(k).one_way_ms, 5.0, 1e-9);
  EXPECT_NEAR(evidence->link(0).residence_ms, 0.5, 1e-9);
  EXPECT_NEAR(evidence->link(2).residence_ms, 0.0, 1e-9);
  EXPECT_TRUE(evidence->links_over(6.0).empty());
  EXPECT_EQ(evidence->links_over(4.0).size(), 3u);
}

TEST(PathEvidence, RejectsMismatchedOrIncompleteStacks) {
  const topology::AsPath path = three_link_path();
  // Too few records for the path.
  IntHeader incomplete = IntHeader::reserve(3);
  incomplete.push(make_record(2, 10, 20));
  EXPECT_FALSE(
      telemetry::PathEvidence::from_header(incomplete, path, 0).ok());
  // Truncated stack: records were dropped, evidence is untrustworthy.
  IntHeader truncated = IntHeader::reserve(1);
  truncated.push(make_record(2, 10, 20));
  truncated.push(make_record(3, 30, 40));  // latches TRUNCATED
  EXPECT_FALSE(
      telemetry::PathEvidence::from_header(truncated, path, 0).ok());
  // Wrong AS order: a record stack from a different path.
  IntHeader wrong_as = IntHeader::reserve(3);
  wrong_as.push(make_record(9, 10, 20));
  wrong_as.push(make_record(3, 30, 40));
  wrong_as.push(make_record(4, 50, 60));
  EXPECT_FALSE(
      telemetry::PathEvidence::from_header(wrong_as, path, 0).ok());
}

// --- Record accumulation through the simulated network -----------------------

struct IntCollector : simnet::Host {
  void on_packet(const simnet::Delivery& delivery) override {
    deliveries.push_back(delivery);
  }
  std::vector<simnet::Delivery> deliveries;
};

struct IntNetFixture : ::testing::Test {
  IntNetFixture() : scenario(simnet::build_chain_scenario(4, 4242, 5.0)) {
    sender_addr = scenario.network->allocate_host_address(1);
    collector_addr = scenario.network->allocate_host_address(4);
    EXPECT_TRUE(
        scenario.network->attach_host(collector_addr, &collector).ok());
  }

  Status send_int_probe(const IntHeader& header) {
    net::ProbeSpec spec;
    spec.source = sender_addr;
    spec.destination = collector_addr;
    spec.source_port = 40001;
    spec.destination_port = 40002;
    spec.payload = header.serialize();
    auto wire = net::build_probe(spec);
    if (!wire) return wire.error();
    return scenario.network->send(sender_addr, std::move(*wire));
  }

  obs::ScopedRegistry scoped;  // before the network: handles are cached
  simnet::Scenario scenario;
  net::Ipv4Address sender_addr, collector_addr;
  IntCollector collector;
};

TEST_F(IntNetFixture, AppendsOneRecordPerLinkWithCoherentTimestamps) {
  scenario.network->set_int_enabled(true);
  const SimTime sent_at = scenario.queue->now();
  ASSERT_TRUE(send_int_probe(IntHeader::reserve(3)).ok());
  scenario.queue->run();

  ASSERT_EQ(collector.deliveries.size(), 1u);
  const net::Packet& packet = collector.deliveries[0].packet;
  auto parsed = IntHeader::parse(
      BytesView(packet.payload.data(), packet.payload.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  ASSERT_EQ(parsed->hop_count(), 3);
  EXPECT_FALSE(parsed->truncated());
  // One record per link, appended by ASes 2, 3, 4 in path order.
  for (std::size_t k = 0; k < 3; ++k) {
    const HopRecord& rec = parsed->record(k);
    EXPECT_EQ(rec.asn, static_cast<std::uint32_t>(k + 2));
    EXPECT_GE(rec.egress_ns, rec.ingress_ns);
    if (k > 0) {
      EXPECT_GT(rec.ingress_ns, parsed->record(k - 1).egress_ns)
          << "timestamps must advance along the path";
    }
  }
  // The path evidence distilled from the delivery matches the 5 ms chain.
  auto path = scenario.network->topology().shortest_path(1, 4);
  ASSERT_TRUE(path.ok());
  auto evidence =
      telemetry::PathEvidence::from_header(*parsed, *path, sent_at);
  ASSERT_TRUE(evidence.ok()) << evidence.error_message();
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_NEAR(evidence->link(k).one_way_ms, 5.0, 1.0);
  EXPECT_EQ(scoped.get().counter("telemetry.int_pushes").value(), 3u);
  EXPECT_EQ(scoped.get().counter("telemetry.int_truncations").value(), 0u);
  // The delivered TTL carries the per-router decrements.
  EXPECT_EQ(packet.ip.ttl, 64 - 3);
}

TEST_F(IntNetFixture, TightBudgetTruncatesExplicitly) {
  scenario.network->set_int_enabled(true);
  ASSERT_TRUE(send_int_probe(IntHeader::reserve(2)).ok());
  scenario.queue->run();
  ASSERT_EQ(collector.deliveries.size(), 1u);
  auto parsed = IntHeader::parse(BytesView(
      collector.deliveries[0].packet.payload.data(),
      collector.deliveries[0].packet.payload.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  EXPECT_EQ(parsed->hop_count(), 2);
  EXPECT_TRUE(parsed->truncated());
  EXPECT_EQ(scoped.get().counter("telemetry.int_truncations").value(), 1u);
}

TEST_F(IntNetFixture, DisabledNetworkForwardsIntPayloadUntouched) {
  const IntHeader header = IntHeader::reserve(3);
  const Bytes original = header.serialize();
  ASSERT_TRUE(send_int_probe(header).ok());
  scenario.queue->run();
  ASSERT_EQ(collector.deliveries.size(), 1u);
  EXPECT_EQ(collector.deliveries[0].packet.payload, original)
      << "with INT off the payload must forward as opaque bytes";
  EXPECT_EQ(scoped.get().counter("telemetry.int_pushes").value(), 0u);
}

TEST_F(IntNetFixture, EnablingIntDoesNotPerturbNonIntTraffic) {
  // The same plain probe, INT on vs INT off, equal seeds: identical
  // arrival instants — the telemetry branch must not consume RNG draws.
  const auto run_plain = [](bool int_on) {
    simnet::Scenario scenario = simnet::build_chain_scenario(4, 777, 5.0);
    scenario.network->set_int_enabled(int_on);
    IntCollector rx;
    const auto src = scenario.network->allocate_host_address(1);
    const auto dst = scenario.network->allocate_host_address(4);
    EXPECT_TRUE(scenario.network->attach_host(dst, &rx).ok());
    for (int i = 0; i < 5; ++i) {
      net::ProbeSpec spec;
      spec.source = src;
      spec.destination = dst;
      spec.source_port = 40001;
      spec.destination_port = 40002;
      spec.sequence = static_cast<std::uint16_t>(i);
      spec.payload = bytes_of("plain payload");
      auto wire = net::build_probe(spec);
      EXPECT_TRUE(wire.ok());
      EXPECT_TRUE(scenario.network->send(src, std::move(*wire)).ok());
      scenario.queue->run();
    }
    std::vector<SimTime> arrivals;
    for (const auto& d : rx.deliveries) arrivals.push_back(d.received_at);
    return arrivals;
  };
  EXPECT_EQ(run_plain(false), run_plain(true));
}

TEST_F(IntNetFixture, ForwardingKeepsReservedBytesAndFlagBits) {
  scenario.network->set_int_enabled(true);
  const Bytes sent = block_with_reserved_bytes_set();
  auto header = IntHeader::parse(BytesView(sent.data(), sent.size()));
  ASSERT_TRUE(header.ok()) << header.error_message();
  ASSERT_TRUE(send_int_probe(*header).ok());
  scenario.queue->run();
  ASSERT_EQ(collector.deliveries.size(), 1u);
  const Bytes& received = collector.deliveries[0].packet.payload;
  ASSERT_GE(received.size(), sent.size());
  EXPECT_EQ(received[5], sent[5]) << "flag bits";
  EXPECT_EQ(received[7], 3) << "one record per link";
  for (std::size_t i = 8; i < 44; ++i)
    EXPECT_EQ(received[i], sent[i]) << "byte " << i;
}

// --- O(1) in-band localization -----------------------------------------------

struct InbandFixture : ::testing::Test {
  InbandFixture()
      : system(simnet::build_chain_scenario(kChainLength, 1313, kHopMs)),
        initiator(system, 2718, 2'000'000'000'000ULL) {}

  static constexpr std::size_t kChainLength = 7;
  static constexpr double kHopMs = 5.0;

  void inject_fault(std::size_t link, double delay_ms) {
    simnet::FaultSpec fault;
    fault.extra_delay_ms = delay_ms;
    fault.start = 0;
    fault.end = duration::hours(100);
    ASSERT_TRUE(system.network()
                    .inject_fault(simnet::chain_egress(link),
                                  simnet::chain_ingress(link + 1), fault)
                    .ok());
    ASSERT_TRUE(system.network()
                    .inject_fault(simnet::chain_ingress(link + 1),
                                  simnet::chain_egress(link), fault)
                    .ok());
  }

  core::FaultLocalizer make_localizer() {
    auto path = system.network().topology().shortest_path(1, kChainLength);
    EXPECT_TRUE(path.ok());
    core::FaultCriteria criteria;
    criteria.per_link_rtt_ms = 2 * kHopMs + 0.5;
    criteria.slack_ms = 15.0;
    criteria.max_loss = 0.2;
    return core::FaultLocalizer(system, initiator, *path, criteria,
                                net::Protocol::kUdp, 8, 100);
  }

  obs::ScopedRegistry scoped;
  core::DebugletSystem system;
  core::Initiator initiator;
};

TEST_F(InbandFixture, LocalizesSingleFaultInOneProbeRound) {
  inject_fault(4, 60.0);
  core::FaultLocalizer localizer = make_localizer();

  auto inband = localizer.run(core::Strategy::kInband);
  ASSERT_TRUE(inband.ok()) << inband.error_message();
  ASSERT_TRUE(inband->located);
  EXPECT_EQ(inband->fault_link, 4u);
  EXPECT_TRUE(inband->exact);
  EXPECT_EQ(inband->measurements, 1u)
      << "in-band evidence must localize in exactly one probe round";
  EXPECT_EQ(inband->tokens_spent, 0u)
      << "the in-band round buys no marketplace measurements";

  auto binary = localizer.run(core::Strategy::kBinarySearch);
  ASSERT_TRUE(binary.ok()) << binary.error_message();
  ASSERT_TRUE(binary->located);
  EXPECT_EQ(binary->fault_link, 4u);
  EXPECT_GE(binary->measurements, 3u)
      << "binary search needs the rounds in-band telemetry saves";
}

TEST_F(InbandFixture, HealthyPathReportsCleanInOneRound) {
  core::FaultLocalizer localizer = make_localizer();
  auto report = localizer.run(core::Strategy::kInband);
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_FALSE(report->located);
  EXPECT_EQ(report->measurements, 1u);
  EXPECT_EQ(report->tokens_spent, 0u);
}

TEST_F(InbandFixture, IntStateIsRestoredAfterTheRun) {
  core::FaultLocalizer localizer = make_localizer();
  ASSERT_FALSE(system.network().int_enabled());
  ASSERT_TRUE(localizer.run(core::Strategy::kInband).ok());
  EXPECT_FALSE(system.network().int_enabled())
      << "the strategy must restore the network's INT switch";
}

}  // namespace
}  // namespace debuglet
