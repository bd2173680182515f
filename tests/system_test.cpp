// System-level tests: marketplace economics end to end, slot-calendar
// behaviour over time, and asymmetric routing (pinned paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "core/debuglet.hpp"
#include "util/log.hpp"

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
  EXPECT_GT(*rebate, 2 * chain::kRebatePerObject);
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

// Token conservation: a seeded random sequence of RegisterTimeSlot,
// PurchaseSlot, ResultReady and ReclaimApplication calls on one system,
// rejected ones included. After every step, what the accounts held at
// set-up plus everything minted since equals balances + contract escrow +
// the gas burned since, net of the storage rebates reclaims pay back.
TEST(SystemEconomics, TokensConservedOverRandomMarketplaceSequence) {
  core::SystemConfig config;
  config.slot_horizon = duration::minutes(10);  // 30 slots per executor
  core::DebugletSystem system(simnet::build_chain_scenario(3, 43, 5.0), config);
  chain::Blockchain& chain = system.chain();
  const marketplace::MarketplaceContract& market = system.marketplace();
  const std::vector<topology::InterfaceKey> keys = system.executor_keys();
  auto operator_of = [&](topology::InterfaceKey key) -> const auto& {
    return system.agent(key).value()->operator_key();
  };
  // Purchased applications run nowhere here: the event queue never runs,
  // so every ResultReady below is this test's. Their empty manifests
  // would make each agent log a rejection.
  struct QuietLog {
    LogLevel before = log_level();
    QuietLog() { set_log_level(LogLevel::kOff); }
    ~QuietLog() { set_log_level(before); }
  } quiet;

  std::vector<chain::Address> accounts;
  for (topology::AsNumber asn : system.network().topology().as_numbers())
    accounts.push_back(chain::Address::of(*system.as_public_key(asn)));
  auto held = [&] {
    chain::Mist total =
        chain.escrow_balance(marketplace::kContractName) +
        chain.escrow_balance(marketplace::kReputationContractName);
    for (const chain::Address& a : accounts) total += chain.balance(a);
    return total;
  };
  const chain::Mist at_setup = held();
  chain::Mist minted = 0;
  chain::Mist gas = 0;
  chain::Mist rebates = 0;

  std::vector<crypto::KeyPair> initiators;
  for (std::uint64_t i = 0; i < 3; ++i) {
    initiators.push_back(crypto::KeyPair::from_seed(4310 + i));
    accounts.push_back(chain::Address::of(initiators.back().public_key()));
    chain.mint(accounts.back(), 50'000'000'000);
    minted += 50'000'000'000;
  }

  marketplace::ApplicationPayload client_app;
  client_app.bytecode = apps::make_probe_client_debuglet().serialize();
  marketplace::ApplicationPayload server_app;
  server_app.bytecode = apps::make_echo_server_debuglet().serialize();
  server_app.listen_port = 40000;
  const crypto::U256& p = crypto::group_prime();
  const crypto::U256 bad_seal_keys[] = {
      crypto::U256(0), crypto::U256(1), crypto::sub(p, crypto::U256(1)), p,
      crypto::sub(crypto::U256(0), crypto::U256(1))};

  struct App {
    chain::ObjectId id;
    topology::InterfaceKey executor;
    std::size_t buyer;
    bool reported = false;
    bool reclaimed = false;
  };
  std::vector<App> bought;
  std::map<topology::InterfaceKey, SimTime> registered_until;
  for (topology::InterfaceKey key : keys)
    registered_until[key] = config.slot_horizon;
  const char* const kinds[] = {"RegisterTimeSlot", "PurchaseSlot",
                               "ResultReady", "ReclaimApplication"};
  std::size_t committed[4] = {};
  std::size_t failed[4] = {};

  // Submits one call, checks the books and returns the receipt.
  auto run = [&](std::size_t kind, const crypto::KeyPair& signer,
                 const Bytes& args, chain::Mist tokens, bool expect_success,
                 chain::Mist rebate_if_committed = 0) {
    auto receipt = chain.submit(chain.make_transaction(
        signer, marketplace::kContractName, kinds[kind], args, tokens));
    EXPECT_TRUE(receipt.ok()) << kinds[kind] << ": " << receipt.error_message();
    if (!receipt) return std::optional<chain::Receipt>{};
    EXPECT_EQ(receipt->success, expect_success)
        << kinds[kind] << ": " << receipt->error;
    gas += receipt->gas_charged;
    if (receipt->success) rebates += rebate_if_committed;
    ++(receipt->success ? committed : failed)[kind];
    EXPECT_EQ(held() + gas, at_setup + minted + rebates) << kinds[kind];
    return std::optional<chain::Receipt>{*receipt};
  };

  Rng rng(4301);
  for (int step = 0; step < 240 && !HasFailure(); ++step) {
    const std::size_t kind = rng.next_below(4);
    const topology::InterfaceKey key = keys[rng.next_below(keys.size())];
    if (kind == 0) {
      // A fresh slot past the calendar, an overlapping one, or a
      // stranger's registration.
      const std::uint64_t variant = rng.next_below(3);
      marketplace::TimeSlot slot;
      slot.start = registered_until[key] -
                   (variant == 1 ? core::kSlotLength : SimDuration{0});
      slot.end = slot.start + core::kSlotLength;
      slot.price = config.slot_price + rng.next_below(1000);
      auto r = run(kind, variant == 2 ? initiators[0] : operator_of(key),
                   marketplace::RegisterTimeSlotArgs{key, {{slot, 1}}}
                       .serialize(),
                   0, variant == 0);
      if (r && r->success) registered_until[key] = slot.end;
    } else if (kind == 1) {
      // The exact price, extra tokens (refunded), one token short, or a
      // seal key outside the group.
      const topology::InterfaceKey server = keys[rng.next_below(keys.size())];
      const auto client_slots = market.available_slots(key);
      const auto server_slots = market.available_slots(server);
      if (server.asn == key.asn || client_slots.empty()) continue;
      const marketplace::TimeSlot client_slot =
          client_slots[rng.next_below(client_slots.size())];
      const auto server_slot = std::find_if(
          server_slots.begin(), server_slots.end(),
          [&](const marketplace::TimeSlot& s) {
            return s.start == client_slot.start;
          });
      if (server_slot == server_slots.end()) continue;
      const std::uint64_t variant = rng.next_below(4);
      marketplace::PurchaseSlotArgs purchase;
      purchase.client_key = key;
      purchase.server_key = server;
      purchase.client_slot = client_slot;
      purchase.server_slot = *server_slot;
      purchase.client_app = client_app;
      purchase.server_app = server_app;
      if (variant == 3)
        purchase.server_app.seal_output_for =
            bad_seal_keys[rng.next_below(5)].to_be_bytes();
      chain::Mist tokens = client_slot.price + server_slot->price;
      if (variant == 1) tokens += 12'345;
      if (variant == 2) tokens -= 1;
      const std::size_t buyer = rng.next_below(initiators.size());
      auto r = run(kind, initiators[buyer], purchase.serialize(), tokens,
                   variant <= 1);
      if (!r || !r->success) continue;
      auto receipt = marketplace::PurchaseReceipt::parse(
          BytesView(r->return_value.data(), r->return_value.size()));
      ASSERT_TRUE(receipt.ok());
      bought.push_back({receipt->client_application, key, buyer});
      bought.push_back({receipt->server_application, server, buyer});
    } else if (!bought.empty()) {
      // ResultReady by the assigned executor or a stranger; reclaim by the
      // buyer or a stranger. Repeats and out-of-order calls fail.
      App& app = bought[rng.next_below(bought.size())];
      const bool stranger = rng.next_below(4) == 0;
      if (kind == 2) {
        topology::InterfaceKey other = app.executor;
        while (other.asn == app.executor.asn)
          other = keys[rng.next_below(keys.size())];
        marketplace::ResultReadyArgs report;
        report.application = app.id;
        report.result.resize(16 + rng.next_below(240));
        for (auto& b : report.result)
          b = static_cast<std::uint8_t>(rng.next_u64());
        auto r = run(kind, operator_of(stranger ? other : app.executor),
                     report.serialize(), 0,
                     !stranger && !app.reported && !app.reclaimed);
        if (r && r->success) app.reported = true;
      } else {
        const auto object = chain.objects().find(app.id);
        const chain::Mist rebate =
            object == chain.objects().end() ? 0 : object->second.rebate_credit;
        const crypto::KeyPair& signer =
            initiators[(app.buyer + (stranger ? 1 : 0)) % initiators.size()];
        auto r = run(kind, signer,
                     marketplace::ReclaimApplicationArgs{app.id}.serialize(),
                     0, !stranger && app.reported && !app.reclaimed, rebate);
        if (r && r->success) app.reclaimed = true;
      }
    }
  }
  for (std::size_t kind = 0; kind < 4; ++kind) {
    EXPECT_GT(committed[kind], 0u) << kinds[kind];
    EXPECT_GT(failed[kind], 0u) << kinds[kind];
  }
}

// Registration carries runs: an executor's whole horizon is one run, so a
// 96-h calendar costs the same transaction bytes as a 48-h one.
TEST(SystemSlots, RegistrationSizeDoesNotGrowWithTheHorizon) {
  /// The marketplace, recording the argument bytes of each registration.
  struct RecordingMarketplace : marketplace::MarketplaceContract {
    Result<Bytes> call(chain::CallContext& ctx, const std::string& function,
                       BytesView arguments) override {
      if (function == "RegisterTimeSlot") sizes.push_back(arguments.size());
      return MarketplaceContract::call(ctx, function, arguments);
    }
    std::vector<std::size_t> sizes;
  };
  std::map<SimDuration, std::size_t> bytes;
  for (const SimDuration horizon : {duration::hours(48), duration::hours(96)}) {
    simnet::Scenario scenario = simnet::build_chain_scenario(2, 5);
    chain::Blockchain chain;
    auto contract = std::make_unique<RecordingMarketplace>();
    RecordingMarketplace* market = contract.get();
    ASSERT_TRUE(chain.register_contract(std::move(contract)).ok());
    const crypto::KeyPair operator_key = crypto::KeyPair::from_seed(5);
    chain.mint(chain::Address::of(operator_key.public_key()),
               1'000'000'000'000);
    core::SystemConfig config;
    config.slot_horizon = horizon;
    const topology::InterfaceKey key{
        1, scenario.network->topology().interfaces_of(1).front()};
    core::ExecutorAgent agent(chain, *scenario.network, key, operator_key,
                              config);
    const Status booted = agent.bootstrap(0);
    ASSERT_TRUE(booted.ok()) << booted.error_message();
    ASSERT_EQ(market->sizes.size(), 1u);
    bytes[horizon] = market->sizes.front();
    EXPECT_EQ(market->available_slots(key).size(),
              static_cast<std::size_t>(horizon / core::kSlotLength));
  }
  EXPECT_EQ(bytes[duration::hours(96)], bytes[duration::hours(48)]);
  EXPECT_LT(bytes[duration::hours(48)], 64u);
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

TEST(SystemSlots, CalendarRollsForwardPastTheHorizon) {
  core::SystemConfig config;
  config.slot_horizon = duration::minutes(10);  // 30 slots of 20 s
  core::DebugletSystem system(simnet::build_chain_scenario(3, 43, 5.0),
                              config);
  core::Initiator initiator(system, 44, 500'000'000'000ULL);
  // 40 measurements take more than the 30 slots bootstrap registered.
  for (int i = 0; i < 40; ++i) {
    auto handle = initiator.purchase_rtt_measurement({1, 2}, {3, 1},
                                                     Protocol::kUdp, 3, 100);
    ASSERT_TRUE(handle.ok()) << i << ": " << handle.error_message();
    auto outcome = initiator.await_result(*handle);
    ASSERT_TRUE(outcome.ok()) << i << ": " << outcome.error_message();
  }
  const SimTime now = system.queue().now();
  ASSERT_GT(now, config.slot_horizon);
  const topology::InterfaceKey pair[] = {{1, 2}, {3, 1}};
  for (topology::InterfaceKey key : pair) {
    const auto slots = system.marketplace().available_slots(key);
    ASSERT_FALSE(slots.empty()) << key.to_string();
    EXPECT_GT(slots.back().end, now + config.slot_horizon / 2)
        << key.to_string();
  }
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
