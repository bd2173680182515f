// System-level tests: marketplace economics end to end, slot-calendar
// behaviour over time, and asymmetric routing (pinned paths).
#include <gtest/gtest.h>

#include "core/debuglet.hpp"

namespace debuglet {
namespace {

using net::Protocol;

TEST(SystemEconomics, TokenFlowBalances) {
  core::SystemConfig config;
  config.slot_price = 5'000'000;  // 0.005 SUI per slot
  core::DebugletSystem system(simnet::build_chain_scenario(3, 11, 5.0),
                              config);
  core::Initiator initiator(system, 12, 500'000'000'000ULL);

  const chain::Address client_as =
      system.agent({1, 2}).value()->address();
  const chain::Address server_as =
      system.agent({3, 1}).value()->address();
  const chain::Mist client_before = system.chain().balance(client_as);
  const chain::Mist server_before = system.chain().balance(server_as);
  const chain::Mist initiator_before = initiator.balance();

  auto handle = initiator.purchase_rtt_measurement({1, 2}, {3, 1},
                                                   Protocol::kUdp, 5, 100);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  EXPECT_EQ(handle->price_paid, 2 * config.slot_price);

  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();

  // Each hosting AS earned exactly its slot price; it also paid gas for
  // RegisterExecutor/RegisterTimeSlot (bootstrap, before the snapshot) and
  // two ResultReady calls here (AS1 and AS3 run one deployment each).
  // Compare against the known gas cost of a ResultReady: computation +
  // storage of the certified result object.
  const chain::Mist client_after = system.chain().balance(client_as);
  const chain::Mist server_after = system.chain().balance(server_as);
  // Earned slot price minus one ResultReady gas each; the result object
  // storage varies with the output size, so check the earning direction
  // and that no tokens vanished: initiator's spend covers gas + prices.
  EXPECT_GT(client_after + 1'000'000'000, client_before)
      << "client AS roughly breaks even on a cheap measurement";
  EXPECT_GT(server_after + 1'000'000'000, server_before);
  EXPECT_EQ(initiator_before - initiator.balance(), initiator.total_spent());
  // Escrow never leaks: whatever remains escrowed is the contract's.
  EXPECT_EQ(system.chain().escrow_balance(marketplace::kContractName), 0u)
      << "all embedded tokens paid out after both ResultReady calls";
}

TEST(SystemEconomics, ReclaimRefundsStorageRebate) {
  core::DebugletSystem system(simnet::build_chain_scenario(3, 15, 5.0));
  core::Initiator initiator(system, 16, 500'000'000'000ULL);
  auto handle = initiator.purchase_rtt_measurement({1, 2}, {3, 1},
                                                   Protocol::kUdp, 5, 100);
  ASSERT_TRUE(handle.ok());

  // Too early: results not reported yet.
  EXPECT_FALSE(initiator.reclaim(*handle).ok());

  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();

  auto rebate = initiator.reclaim(*handle);
  ASSERT_TRUE(rebate.ok()) << rebate.error_message();
  // The application objects carried the Debuglet bytecodes (~1 kB each),
  // so the rebate exceeds two per-object minimums.
  EXPECT_GT(*rebate, 2 * system.chain().config().gas.rebate_per_object);
  EXPECT_FALSE(system.chain().object_exists(handle->client_application));
  EXPECT_FALSE(system.chain().object_exists(handle->server_application));
  // Results remain available after the applications are freed.
  EXPECT_TRUE(initiator.collect(*handle).ok())
      << "results are stored in their own objects";
  // Double reclaim fails.
  EXPECT_FALSE(initiator.reclaim(*handle).ok());
}

TEST(SystemEconomics, OnlyPurchaserMayReclaim) {
  core::DebugletSystem system(simnet::build_chain_scenario(2, 17, 5.0));
  core::Initiator buyer(system, 18, 500'000'000'000ULL);
  core::Initiator stranger(system, 19, 500'000'000'000ULL);
  auto handle = buyer.purchase_rtt_measurement({1, 2}, {2, 1},
                                               Protocol::kUdp, 3, 100);
  ASSERT_TRUE(handle.ok());
  auto outcome = buyer.await_result(*handle);
  ASSERT_TRUE(outcome.ok());
  auto theft = stranger.reclaim(*handle);
  ASSERT_FALSE(theft.ok());
  EXPECT_NE(theft.error_message().find("only the purchasing initiator"),
            std::string::npos);
  EXPECT_TRUE(buyer.reclaim(*handle).ok());
}

TEST(SystemSlots, SequentialMeasurementsGetLaterWindows) {
  core::DebugletSystem system(simnet::build_chain_scenario(3, 21, 5.0));
  core::Initiator initiator(system, 22, 500'000'000'000ULL);

  auto h1 = initiator.purchase_rtt_measurement({1, 2}, {3, 1},
                                               Protocol::kUdp, 5, 100);
  ASSERT_TRUE(h1.ok());
  auto h2 = initiator.purchase_rtt_measurement({1, 2}, {3, 1},
                                               Protocol::kUdp, 5, 100);
  ASSERT_TRUE(h2.ok());
  // The first purchase consumed the earliest slot pair; the second must
  // land strictly later and not overlap.
  EXPECT_GE(h2->window_start, h1->window_end);

  // Both still complete.
  auto o1 = initiator.await_result(*h1);
  auto o2 = initiator.await_result(*h2);
  ASSERT_TRUE(o1.ok()) << o1.error_message();
  ASSERT_TRUE(o2.ok()) << o2.error_message();
}

TEST(SystemSlots, EarliestStartRespected) {
  core::DebugletSystem system(simnet::build_chain_scenario(3, 31, 5.0));
  core::Initiator initiator(system, 32, 500'000'000'000ULL);
  const SimTime not_before = duration::minutes(30);
  auto handle = initiator.purchase_rtt_measurement(
      {1, 2}, {3, 1}, Protocol::kUdp, 5, 100, not_before);
  ASSERT_TRUE(handle.ok());
  EXPECT_GE(handle->window_end, not_before);
}

TEST(SystemSlots, ExhaustedCalendarFailsCleanly) {
  core::SystemConfig config;
  config.slot_horizon = duration::seconds(40);  // only two 20 s slots
  core::DebugletSystem system(simnet::build_chain_scenario(2, 41, 5.0),
                              config);
  core::Initiator initiator(system, 42, 500'000'000'000ULL);
  auto h1 = initiator.purchase_rtt_measurement({1, 2}, {2, 1},
                                               Protocol::kUdp, 3, 100);
  ASSERT_TRUE(h1.ok()) << h1.error_message();
  auto h2 = initiator.purchase_rtt_measurement({1, 2}, {2, 1},
                                               Protocol::kUdp, 3, 100);
  ASSERT_TRUE(h2.ok()) << h2.error_message();
  auto h3 = initiator.purchase_rtt_measurement({1, 2}, {2, 1},
                                               Protocol::kUdp, 3, 100);
  ASSERT_FALSE(h3.ok());
  EXPECT_NE(h3.error_message().find("no common execution slot"),
            std::string::npos);
}

// --- Asymmetric routing (paper §III: "Internet paths may not be
// symmetric") --------------------------------------------------------------

TEST(AsymmetricRouting, PinnedPathsDiverge) {
  // Diamond: 1 - {2 | 3} - 4, with AS2 fast and AS3 slow.
  topology::Topology topo;
  for (topology::AsNumber a : {1u, 2u, 3u, 4u})
    ASSERT_TRUE(topo.add_as(a, "AS" + std::to_string(a)).ok());
  ASSERT_TRUE(topo.add_link({1, 1}, {2, 1}).ok());
  ASSERT_TRUE(topo.add_link({2, 2}, {4, 1}).ok());
  ASSERT_TRUE(topo.add_link({1, 2}, {3, 1}).ok());
  ASSERT_TRUE(topo.add_link({3, 2}, {4, 2}).ok());

  simnet::EventQueue queue;
  simnet::SimulatedNetwork network(queue, std::move(topo), 51);
  simnet::LinkConfig fast;
  fast.propagation_ms = 2.0;
  simnet::LinkConfig slow;
  slow.propagation_ms = 20.0;
  ASSERT_TRUE(network.configure_link_symmetric({1, 1}, {2, 1}, fast).ok());
  ASSERT_TRUE(network.configure_link_symmetric({2, 2}, {4, 1}, fast).ok());
  ASSERT_TRUE(network.configure_link_symmetric({1, 2}, {3, 1}, slow).ok());
  ASSERT_TRUE(network.configure_link_symmetric({3, 2}, {4, 2}, slow).ok());
  for (topology::AsNumber a : {1u, 2u, 3u, 4u})
    network.configure_transit(a, {0.05, 0.0, 0.0});

  // Forward 1->4 via fast AS2; reverse 4->1 via slow AS3.
  auto via2 = network.topology().shortest_path(1, 4);
  ASSERT_TRUE(via2.ok());
  ASSERT_EQ(via2->hops[1].asn, 2u);
  auto paths_back = network.topology().find_paths(4, 1, 10);
  ASSERT_EQ(paths_back.size(), 2u);
  const topology::AsPath via3_back =
      paths_back[0].hops[1].asn == 3 ? paths_back[0] : paths_back[1];
  ASSERT_EQ(via3_back.hops[1].asn, 3u);
  network.pin_path(1, 4, *via2);
  network.pin_path(4, 1, via3_back);

  // An echoed probe sees fast out (4 ms), slow back (40 ms).
  simnet::EchoServerHost server(network, network.allocate_host_address(4));
  ASSERT_TRUE(network.attach_host(server.address(), &server).ok());
  const auto client_addr = network.allocate_host_address(1);
  simnet::ProbeClientConfig cfg;
  cfg.server = server.address();
  cfg.probe_count = 10;
  cfg.interval = duration::milliseconds(100);
  cfg.protocols = {Protocol::kUdp};
  simnet::ProbeClientHost client(network, client_addr, cfg, 52);
  ASSERT_TRUE(network.attach_host(client_addr, &client).ok());
  client.start();
  queue.run();
  // RTT ≈ 4 + 40 + transit; symmetric routing would give 8 or 80.
  EXPECT_NEAR(client.report().rtt_ms.at(Protocol::kUdp).mean(), 44.2, 1.0);
}

TEST(SystemConfig, CustomExecutorPolicyEnforcedThroughMarketplace) {
  core::SystemConfig config;
  config.executor.policy.max_packets = 4;  // very strict ASes
  core::DebugletSystem system(simnet::build_chain_scenario(2, 61, 5.0),
                              config);
  core::Initiator initiator(system, 62, 500'000'000'000ULL);
  // 10 probes exceed the policy: the purchase succeeds (the contract does
  // not inspect manifests) but the executor rejects at deployment, so no
  // result is ever published.
  auto handle = initiator.purchase_rtt_measurement({1, 2}, {2, 1},
                                                   Protocol::kUdp, 10, 100);
  ASSERT_TRUE(handle.ok());
  EXPECT_FALSE(initiator.await_result(*handle).ok());
}

}  // namespace
}  // namespace debuglet
