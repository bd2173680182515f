#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "simnet/hosts.hpp"
#include "simnet/scenarios.hpp"

namespace debuglet::simnet {
namespace {

using net::Protocol;

// --- EventQueue ------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, StableOrderAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(7, [&order, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMore) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] {
    ++fired;
    q.schedule_after(5, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 6);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  EXPECT_EQ(q.run_until(15), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 15);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(25);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PastSchedulingClampsToNow) {
  EventQueue q;
  q.schedule_at(100, [&] {
    q.schedule_at(50, [] {});  // in the past — must not rewind the clock
  });
  q.run();
  EXPECT_EQ(q.now(), 100);
}

// --- LinkModel ---------------------------------------------------------------

LinkConfig basic_config() {
  LinkConfig cfg;
  cfg.propagation_ms = 10.0;
  cfg.routes = {{0.0, 0.0, 0.0}};
  return cfg;
}

// The one copy of a crossing that must not be lost (these links carry no
// fault plan); at() throws, failing the test, when it was lost.
const DeliveryCopy& delivered(const TraverseOutcome& out) {
  EXPECT_EQ(out.copies.size(), 1u);
  return out.copies.at(0);
}

TEST(LinkModel, DeterministicDelay) {
  LinkModel link(basic_config(), Rng(1));
  const auto out = link.traverse(Protocol::kUdp, 1, 0);
  EXPECT_FALSE(out.copies.empty());
  EXPECT_EQ(delivered(out).delay, duration::milliseconds(10));
}

TEST(LinkModel, RouteOffsetsApply) {
  LinkConfig cfg = basic_config();
  cfg.routes = {{5.0, 0.0, 0.0}};
  LinkModel link(cfg, Rng(1));
  EXPECT_EQ(delivered(link.traverse(Protocol::kTcp, 1, 0)).delay,
            duration::milliseconds(15));
}

TEST(LinkModel, LossRateApproximatelyHonored) {
  LinkConfig cfg = basic_config();
  cfg.routes = {{0.0, 0.0, 100.0}};  // 10%
  LinkModel link(cfg, Rng(2));
  int dropped = 0;
  for (int i = 0; i < 20000; ++i)
    dropped += link.traverse(Protocol::kUdp, 1, i).copies.empty();
  EXPECT_NEAR(dropped / 20000.0, 0.10, 0.01);
}

TEST(LinkModel, PerPacketSelectionSpreadsRoutes) {
  LinkConfig cfg = basic_config();
  cfg.routes = {{0.0, 0.0, 0.0}, {5.0, 0.0, 0.0}, {10.0, 0.0, 0.0}};
  cfg.policies[Protocol::kUdp] =
      ProtocolPolicy{SelectionPolicy::kPerPacket, {0, 1, 2}, 1.0, false};
  LinkModel link(cfg, Rng(3));
  std::map<std::size_t, int> used;
  for (int i = 0; i < 3000; ++i)
    ++used[delivered(link.traverse(Protocol::kUdp, 42, 0)).route];
  ASSERT_EQ(used.size(), 3u);
  for (const auto& [route, count] : used) EXPECT_GT(count, 800) << route;
}

TEST(LinkModel, PerFlowSelectionIsStable) {
  LinkConfig cfg = basic_config();
  cfg.routes = {{0.0, 0.0, 0.0}, {5.0, 0.0, 0.0}};
  cfg.policies[Protocol::kTcp] =
      ProtocolPolicy{SelectionPolicy::kPerFlow, {0, 1}, 1.0, false};
  LinkModel link(cfg, Rng(4));
  const std::size_t first =
      delivered(link.traverse(Protocol::kTcp, 777, 0)).route;
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(delivered(link.traverse(Protocol::kTcp, 777, 0)).route, first);
  // Distinct flows can map to distinct routes.
  std::set<std::size_t> routes;
  for (std::uint64_t flow = 0; flow < 64; ++flow)
    routes.insert(delivered(link.traverse(Protocol::kTcp, flow, 0)).route);
  EXPECT_EQ(routes.size(), 2u);
}

TEST(LinkModel, PriorityTrafficSkipsEpisodes) {
  LinkConfig cfg = basic_config();
  cfg.routes = {{0.0, 0.0, 0.0}};
  cfg.policies[Protocol::kIcmp] =
      ProtocolPolicy{SelectionPolicy::kFixed, {0}, 1.0, /*priority=*/true};
  EpisodeSpec episode;
  episode.label = "congestion";
  episode.on_mean_s = 1e7;   // effectively always on once started
  episode.off_mean_s = 1e-9;
  episode.extra_delay_ms = 50.0;
  cfg.episodes = {episode};
  LinkModel link(cfg, Rng(5));
  // Advance far enough that the episode has begun.
  const SimTime late = duration::hours(1);
  const auto icmp = link.traverse(Protocol::kIcmp, 1, late);
  const auto udp = link.traverse(Protocol::kUdp, 1, late);
  EXPECT_EQ(delivered(icmp).delay, duration::milliseconds(10));
  EXPECT_EQ(delivered(udp).delay, duration::milliseconds(60));
}

TEST(LinkModel, EpisodeAffectsOnlyListedProtocols) {
  LinkConfig cfg = basic_config();
  EpisodeSpec episode;
  episode.on_mean_s = 1e7;
  episode.off_mean_s = 1e-9;
  episode.extra_delay_ms = 30.0;
  episode.affects = {Protocol::kUdp, Protocol::kRawIp};
  cfg.episodes = {episode};
  LinkModel link(cfg, Rng(6));
  const SimTime late = duration::hours(1);
  EXPECT_EQ(delivered(link.traverse(Protocol::kUdp, 1, late)).delay,
            duration::milliseconds(40));
  EXPECT_EQ(delivered(link.traverse(Protocol::kTcp, 1, late)).delay,
            duration::milliseconds(10));
}

TEST(LinkModel, DropMultiplierAmplifiesEpisodeLoss) {
  LinkConfig cfg = basic_config();
  EpisodeSpec episode;
  episode.on_mean_s = 1e7;
  episode.off_mean_s = 1e-9;
  episode.extra_loss_pm = 50.0;  // 5%
  cfg.episodes = {episode};
  cfg.policies[Protocol::kTcp] =
      ProtocolPolicy{SelectionPolicy::kFixed, {0}, 3.0, false};
  LinkModel link(cfg, Rng(7));
  const SimTime late = duration::hours(1);
  int udp_drops = 0, tcp_drops = 0;
  for (int i = 0; i < 30000; ++i) {
    udp_drops += link.traverse(Protocol::kUdp, 1, late).copies.empty();
    tcp_drops += link.traverse(Protocol::kTcp, 1, late).copies.empty();
  }
  EXPECT_NEAR(udp_drops / 30000.0, 0.05, 0.01);
  EXPECT_NEAR(tcp_drops / 30000.0, 0.15, 0.015);
}

TEST(LinkModel, FaultInjectionWindowed) {
  LinkConfig cfg = basic_config();
  LinkModel link(cfg, Rng(8));
  FaultSpec fault;
  fault.extra_delay_ms = 100.0;
  fault.start = duration::seconds(10);
  fault.end = duration::seconds(20);
  link.inject_fault(fault);
  EXPECT_EQ(delivered(link.traverse(Protocol::kUdp, 1, duration::seconds(5)))
                .delay,
            duration::milliseconds(10));
  EXPECT_EQ(delivered(link.traverse(Protocol::kUdp, 1, duration::seconds(15)))
                .delay,
            duration::milliseconds(110));
  EXPECT_EQ(delivered(link.traverse(Protocol::kUdp, 1, duration::seconds(25)))
                .delay,
            duration::milliseconds(10));
  link.clear_fault();
  EXPECT_EQ(delivered(link.traverse(Protocol::kUdp, 1, duration::seconds(15)))
                .delay,
            duration::milliseconds(10));
}

TEST(LinkModel, SerializationDelayScalesWithSize) {
  LinkConfig cfg = basic_config();
  cfg.bandwidth_bps = 8'000'000;  // 1 byte per microsecond
  LinkModel link(cfg, Rng(9));
  const auto small = link.traverse(Protocol::kUdp, 1, 0,
                                   net::Ipv4Address(), net::Ipv4Address(),
                                   100);
  const auto big = link.traverse(Protocol::kUdp, 1, 0, net::Ipv4Address(),
                                 net::Ipv4Address(), 1500);
  EXPECT_EQ(delivered(small).delay,
            duration::milliseconds(10) + duration::microseconds(100));
  EXPECT_EQ(delivered(big).delay,
            duration::milliseconds(10) + duration::microseconds(1500));
  // Length-equalized probes see identical serialization delay — the
  // paper's reason for equalizing probe sizes.
  const auto equal_a = link.traverse(Protocol::kTcp, 1, 0,
                                     net::Ipv4Address(), net::Ipv4Address(),
                                     64);
  const auto equal_b = link.traverse(Protocol::kIcmp, 1, 0,
                                     net::Ipv4Address(), net::Ipv4Address(),
                                     64);
  EXPECT_EQ(delivered(equal_a).delay, delivered(equal_b).delay);
}

TEST(LinkModel, ZeroBandwidthMeansNoSerializationDelay) {
  LinkModel link(basic_config(), Rng(10));
  EXPECT_EQ(delivered(link.traverse(Protocol::kUdp, 1, 0, net::Ipv4Address(),
                                    net::Ipv4Address(), 65535))
                .delay,
            duration::milliseconds(10));
}

TEST(LinkModel, RejectsBadConfig) {
  LinkConfig cfg;
  cfg.routes.clear();
  EXPECT_THROW(LinkModel(cfg, Rng(1)), std::invalid_argument);
  LinkConfig cfg2 = basic_config();
  cfg2.policies[Protocol::kUdp] =
      ProtocolPolicy{SelectionPolicy::kFixed, {7}, 1.0, false};
  EXPECT_THROW(LinkModel(cfg2, Rng(1)), std::invalid_argument);
}

// --- SimulatedNetwork -------------------------------------------------------

class Collector : public Host {
 public:
  void on_packet(const Delivery& delivery) override {
    deliveries.push_back(delivery);
  }
  std::vector<Delivery> deliveries;
};

TEST(Network, DeliversAcrossChain) {
  Scenario s = build_chain_scenario(4, 99, 5.0);
  Collector sink;
  const auto dst = s.network->allocate_host_address(4);
  ASSERT_TRUE(s.network->attach_host(dst, &sink).ok());
  const auto src = s.network->allocate_host_address(1);

  net::ProbeSpec spec;
  spec.protocol = Protocol::kUdp;
  spec.source = src;
  spec.destination = dst;
  spec.destination_port = 9;
  spec.payload = bytes_of("hello across the chain");
  auto wire = net::build_probe(spec);
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(s.network->send(src, *wire).ok());
  s.queue->run();

  ASSERT_EQ(sink.deliveries.size(), 1u);
  const Delivery& d = sink.deliveries[0];
  EXPECT_EQ(d.packet.ip.source, src);
  EXPECT_EQ(string_of(BytesView(d.packet.payload.data(),
                                d.packet.payload.size())),
            "hello across the chain");
  // 3 links x 5 ms + 2 intermediate ASes transit (~0.1 ms each): the
  // packet crossed all four ASes.
  const double ms = duration::to_ms(d.received_at - d.sent_at);
  EXPECT_NEAR(ms, 15.2, 0.5);
}

TEST(Network, SourceSpoofingRejected) {
  Scenario s = build_chain_scenario(2, 1);
  const auto a = s.network->allocate_host_address(1);
  const auto b = s.network->allocate_host_address(2);
  net::ProbeSpec spec;
  spec.protocol = Protocol::kUdp;
  spec.source = b;  // not the sender
  spec.destination = a;
  spec.payload = bytes_of("spoof");
  auto wire = net::build_probe(spec);
  EXPECT_FALSE(s.network->send(a, *wire).ok());
}

TEST(Network, HostAddressesRunOutLoudly) {
  // 10.0.1.200 to 10.0.1.255: 56 distinct addresses, then an error naming
  // the AS rather than a repeat of the first. Other ASes are unaffected.
  Scenario s = build_chain_scenario(2, 1);
  std::set<net::Ipv4Address> seen;
  for (int i = 0; i < 56; ++i) {
    const net::Ipv4Address a = s.network->allocate_host_address(1);
    EXPECT_TRUE(seen.insert(a).second) << a.to_string();
    EXPECT_EQ(s.network->as_of(a), 1u);
  }
  EXPECT_EQ(seen.rbegin()->to_string(), "10.0.1.255");
  try {
    s.network->allocate_host_address(1);
    ADD_FAILURE() << "the 57th address was allocated";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()), "no host address left in AS1");
  }
  EXPECT_EQ(s.network->allocate_host_address(2).to_string(), "10.0.2.200");
}

TEST(Network, BlackholeCountsAsDrop) {
  Scenario s = build_chain_scenario(2, 1);
  const auto src = s.network->allocate_host_address(1);
  const auto dst = s.network->allocate_host_address(2);  // nobody attached
  net::ProbeSpec spec;
  spec.protocol = Protocol::kUdp;
  spec.source = src;
  spec.destination = dst;
  spec.payload = bytes_of("into the void");
  ASSERT_TRUE(s.network->send(src, *net::build_probe(spec)).ok());
  s.queue->run();
  EXPECT_EQ(s.network->stats().dropped.at(Protocol::kUdp), 1u);
  EXPECT_EQ(s.network->stats().sent.at(Protocol::kUdp), 1u);
}

TEST(Network, ConservationSentEqualsDeliveredPlusDropped) {
  Scenario s = build_chain_scenario(3, 5);
  // Add loss so both outcomes occur.
  LinkConfig lossy;
  lossy.propagation_ms = 2.0;
  lossy.routes = {{0.0, 0.1, 200.0}};  // 20% loss
  ASSERT_TRUE(s.network
                  ->configure_link_symmetric(chain_egress(0), chain_ingress(1),
                                             lossy)
                  .ok());
  Collector sink;
  const auto dst = s.network->allocate_host_address(3);
  ASSERT_TRUE(s.network->attach_host(dst, &sink).ok());
  const auto src = s.network->allocate_host_address(1);
  for (int i = 0; i < 500; ++i) {
    net::ProbeSpec spec;
    spec.protocol = Protocol::kUdp;
    spec.source = src;
    spec.destination = dst;
    spec.sequence = static_cast<std::uint16_t>(i);
    spec.payload = bytes_of("conservation");
    ASSERT_TRUE(s.network->send(src, *net::build_probe(spec)).ok());
  }
  s.queue->run();
  const NetworkStats& st = s.network->stats();
  EXPECT_EQ(st.sent.at(Protocol::kUdp), 500u);
  EXPECT_EQ(st.delivered.at(Protocol::kUdp) + st.dropped.at(Protocol::kUdp),
            500u);
  EXPECT_GT(st.dropped.at(Protocol::kUdp), 30u);
  EXPECT_EQ(sink.deliveries.size(), st.delivered.at(Protocol::kUdp));
}

TEST(Network, FaultInjectionRaisesPathDelay) {
  Scenario s = build_chain_scenario(4, 7);
  auto* link = s.network->link_model(chain_egress(1), chain_ingress(2));
  ASSERT_NE(link, nullptr);
  FaultSpec fault;
  fault.extra_delay_ms = 80.0;
  fault.start = 0;
  fault.end = duration::hours(1);
  ASSERT_TRUE(
      s.network->inject_fault(chain_egress(1), chain_ingress(2), fault).ok());

  auto path = s.network->topology().shortest_path(1, 4);
  ASSERT_TRUE(path.ok());
  auto faulty = s.network->expected_path_delay_ms(*path, Protocol::kUdp);
  ASSERT_TRUE(faulty.ok());
  EXPECT_NEAR(*faulty, 3 * 5.0 + 80.0 + 2 * 0.1, 1.0);
  ASSERT_TRUE(
      s.network->clear_fault(chain_egress(1), chain_ingress(2)).ok());
  EXPECT_NEAR(*s.network->expected_path_delay_ms(*path, Protocol::kUdp),
              3 * 5.0 + 0.2, 1.0);
}

TEST(Network, DetachedHostMidFlightCountsDrop) {
  Scenario s = build_chain_scenario(2, 3);
  Collector sink;
  const auto dst = s.network->allocate_host_address(2);
  ASSERT_TRUE(s.network->attach_host(dst, &sink).ok());
  const auto src = s.network->allocate_host_address(1);
  net::ProbeSpec spec;
  spec.protocol = Protocol::kUdp;
  spec.source = src;
  spec.destination = dst;
  spec.payload = bytes_of("late");
  ASSERT_TRUE(s.network->send(src, *net::build_probe(spec)).ok());
  s.network->detach_host(dst);
  s.queue->run();
  EXPECT_TRUE(sink.deliveries.empty());
  EXPECT_EQ(s.network->stats().dropped.at(Protocol::kUdp), 1u);
}

TEST(Network, HostReattachedAtAddressGetsOnlyLaterPackets) {
  // A packet is bound to the host it arrives at. When that host detaches
  // during the receiver's access stub and another attaches at the same
  // address, the bound packet is dropped; packets sent afterwards reach
  // the new host.
  Scenario s = build_chain_scenario(2, 3, 5.0);
  Collector old_host, new_host;
  const auto dst = s.network->allocate_host_address(2);
  AccessConfig stub;
  stub.delay_ms = 50.0;
  ASSERT_TRUE(s.network->attach_host(dst, &old_host, stub).ok());
  const auto src = s.network->allocate_host_address(1);
  auto send = [&](const char* text) {
    net::ProbeSpec spec;
    spec.protocol = Protocol::kUdp;
    spec.source = src;
    spec.destination = dst;
    spec.payload = bytes_of(text);
    return s.network->send(src, *net::build_probe(spec));
  };
  ASSERT_TRUE(send("in flight").ok());
  // Past arrival (~5 ms), before delivery (~55 ms).
  s.queue->run_until(duration::milliseconds(30));
  s.network->detach_host(dst);
  ASSERT_TRUE(s.network->attach_host(dst, &new_host, stub).ok());
  ASSERT_TRUE(send("after attach").ok());
  s.queue->run();

  EXPECT_TRUE(old_host.deliveries.empty());
  ASSERT_EQ(new_host.deliveries.size(), 1u);
  const net::Packet& got = new_host.deliveries[0].packet;
  EXPECT_EQ(string_of(BytesView(got.payload.data(), got.payload.size())),
            "after attach");
  EXPECT_EQ(s.network->stats().dropped.at(Protocol::kUdp), 1u);
}

// --- Probe hosts -------------------------------------------------------------

TEST(Hosts, EchoRoundTripMeasuresRtt) {
  Scenario s = build_chain_scenario(2, 11, 10.0);
  const auto server_addr = s.network->allocate_host_address(2);
  EchoServerHost server(*s.network, server_addr);
  ASSERT_TRUE(s.network->attach_host(server_addr, &server).ok());

  const auto client_addr = s.network->allocate_host_address(1);
  ProbeClientConfig cfg;
  cfg.server = server_addr;
  cfg.probe_count = 20;
  cfg.interval = duration::milliseconds(100);
  ProbeClientHost client(*s.network, client_addr, cfg, 12);
  ASSERT_TRUE(s.network->attach_host(client_addr, &client).ok());
  client.start();
  s.queue->run();

  const ProbeReport& report = client.report();
  for (Protocol p : net::kAllProtocols) {
    EXPECT_EQ(report.sent.at(p), 20u) << net::protocol_name(p);
    EXPECT_EQ(report.received.at(p), 20u) << net::protocol_name(p);
    EXPECT_NEAR(report.rtt_ms.at(p).mean(), 20.4, 1.0)
        << net::protocol_name(p);
  }
  EXPECT_EQ(server.packets_echoed(), 80u);
}

TEST(Hosts, ProcessingOverheadShiftsRtt) {
  Scenario s = build_chain_scenario(2, 13, 10.0);
  const auto server_addr = s.network->allocate_host_address(2);
  EchoServerHost server(*s.network, server_addr,
                        duration::microseconds(500));
  ASSERT_TRUE(s.network->attach_host(server_addr, &server).ok());
  const auto client_addr = s.network->allocate_host_address(1);
  ProbeClientConfig cfg;
  cfg.server = server_addr;
  cfg.probe_count = 50;
  cfg.interval = duration::milliseconds(50);
  cfg.protocols = {Protocol::kUdp};
  cfg.processing_overhead = duration::microseconds(500);
  ProbeClientHost client(*s.network, client_addr, cfg, 14);
  ASSERT_TRUE(s.network->attach_host(client_addr, &client).ok());
  client.start();
  s.queue->run();
  // Client + server overhead ≈ 1 ms on top of the ~20 ms network RTT.
  EXPECT_NEAR(client.report().rtt_ms.at(Protocol::kUdp).mean(), 21.0, 0.5);
}

TEST(Hosts, LossAccountedAfterTimeout) {
  Scenario s = build_chain_scenario(2, 15, 10.0);
  LinkConfig lossy;
  lossy.propagation_ms = 10.0;
  lossy.routes = {{0.0, 0.0, 300.0}};  // 30% per direction
  ASSERT_TRUE(s.network
                  ->configure_link_symmetric(chain_egress(0), chain_ingress(1),
                                             lossy)
                  .ok());
  const auto server_addr = s.network->allocate_host_address(2);
  EchoServerHost server(*s.network, server_addr);
  ASSERT_TRUE(s.network->attach_host(server_addr, &server).ok());
  const auto client_addr = s.network->allocate_host_address(1);
  ProbeClientConfig cfg;
  cfg.server = server_addr;
  cfg.probe_count = 400;
  cfg.interval = duration::milliseconds(20);
  cfg.protocols = {Protocol::kUdp};
  ProbeClientHost client(*s.network, client_addr, cfg, 16);
  ASSERT_TRUE(s.network->attach_host(client_addr, &client).ok());
  client.start();
  s.queue->run();
  // Round-trip delivery probability = 0.7^2 = 0.49 → ~51% loss.
  EXPECT_NEAR(client.report().loss_per_mille(Protocol::kUdp), 510.0, 60.0);
}

// --- City scenario calibration (spot check; full check in the benches) ------

TEST(CityScenario, FrankfurtIcmpPriorityAndUdpClusters) {
  Scenario s = build_city_scenario(2024);
  const auto server_addr = s.network->allocate_host_address(london_as());
  EchoServerHost server(*s.network, server_addr);
  ASSERT_TRUE(s.network->attach_host(server_addr, &server).ok());
  const auto client_addr =
      s.network->allocate_host_address(city_as("Frankfurt"));
  ProbeClientConfig cfg;
  cfg.server = server_addr;
  cfg.probe_count = 2000;
  cfg.interval = duration::milliseconds(100);
  ProbeClientHost client(*s.network, client_addr, cfg, 17);
  ASSERT_TRUE(s.network->attach_host(client_addr, &client).ok());
  client.start();
  s.queue->run();

  const ProbeReport& r = client.report();
  const double icmp = r.rtt_ms.at(Protocol::kIcmp).mean();
  const double udp = r.rtt_ms.at(Protocol::kUdp).mean();
  const double raw = r.rtt_ms.at(Protocol::kRawIp).mean();
  EXPECT_LT(icmp, udp) << "ICMP rides the priority queue";
  EXPECT_LT(icmp, raw);
  EXPECT_NEAR(icmp, 11.95, 1.0);
  // UDP forms 4 clusters (paper Fig. 2).
  EXPECT_EQ(estimate_mode_count(r.rtt_ms.at(Protocol::kUdp).samples(), 8),
            4u);
}

TEST(CityScenario, NewYorkTcpLossDominates) {
  Scenario s = build_city_scenario(31337);
  const auto server_addr = s.network->allocate_host_address(london_as());
  EchoServerHost server(*s.network, server_addr);
  ASSERT_TRUE(s.network->attach_host(server_addr, &server).ok());
  const auto client_addr =
      s.network->allocate_host_address(city_as("NewYork"));
  ProbeClientConfig cfg;
  cfg.server = server_addr;
  // Congestion episodes recur on a ~2-hour cycle; span half a day so the
  // loss ratio stabilizes.
  cfg.probe_count = 43200;
  cfg.interval = duration::seconds(1);
  ProbeClientHost client(*s.network, client_addr, cfg, 18);
  ASSERT_TRUE(s.network->attach_host(client_addr, &client).ok());
  client.start();
  s.queue->run();

  const ProbeReport& r = client.report();
  EXPECT_GT(r.loss_per_mille(Protocol::kTcp),
            2.0 * r.loss_per_mille(Protocol::kUdp))
      << "TCP deprioritized on congestion";
  EXPECT_LT(r.loss_per_mille(Protocol::kIcmp), 1.5);
  EXPECT_LT(r.rtt_ms.at(Protocol::kUdp).mean(),
            r.rtt_ms.at(Protocol::kIcmp).mean())
      << "UDP/TCP ride the faster routes in New York (paper Fig. 1)";
}

TEST(CityScenario, PaperRowsExposed) {
  const PaperCityRow row = paper_table1("Bangalore", Protocol::kTcp);
  EXPECT_DOUBLE_EQ(row.mean_ms, 158.05);
  EXPECT_DOUBLE_EQ(row.std_ms, 5.27);
  EXPECT_DOUBLE_EQ(row.loss_pm, 1.72);
  EXPECT_THROW(city_as("Atlantis"), std::invalid_argument);
}

}  // namespace
}  // namespace debuglet::simnet
