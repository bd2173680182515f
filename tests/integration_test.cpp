// End-to-end tests of the full Debuglet lifecycle (paper §IV-A, Fig. 7):
// request -> on-chain purchase -> executor deployment -> sandboxed
// measurement over the simulated network -> certified result publication ->
// third-party verification.
#include <gtest/gtest.h>

#include "core/debuglet.hpp"

namespace debuglet::core {
namespace {

using net::Protocol;

struct SystemFixture : ::testing::Test {
  SystemFixture()
      : system(simnet::build_chain_scenario(5, 4242, 5.0)),
        initiator(system, 9001, 500'000'000'000ULL) {}

  DebugletSystem system;
  Initiator initiator;
};

TEST_F(SystemFixture, ExecutorsDeployedAtEveryBorderInterface) {
  // 5-AS chain: 4 links x 2 interfaces.
  EXPECT_EQ(system.executor_keys().size(), 8u);
  EXPECT_TRUE(system.agent({1, 2}).ok());
  EXPECT_TRUE(system.agent({3, 1}).ok());
  EXPECT_TRUE(system.agent({3, 2}).ok());
  EXPECT_FALSE(system.agent({1, 9}).ok());
}

TEST_F(SystemFixture, FullLifecycleRttMeasurement) {
  auto handle = initiator.purchase_rtt_measurement(
      {1, 2}, {5, 1}, Protocol::kUdp, 10, 100);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  EXPECT_GT(handle->price_paid, 0u);

  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();

  EXPECT_FALSE(outcome->client.record.trapped)
      << outcome->client.record.trap_message;
  EXPECT_FALSE(outcome->server.record.trapped)
      << outcome->server.record.trap_message;
  EXPECT_EQ(outcome->client.record.exit_value, 10);

  auto summary = summarize_rtt(outcome->client, 10);
  ASSERT_TRUE(summary.ok()) << summary.error_message();
  EXPECT_EQ(summary->probes_answered, 10u);
  EXPECT_EQ(summary->loss_rate(), 0.0);
  // 4 links x 5 ms x 2 directions + transit + sandbox I/O.
  EXPECT_NEAR(summary->mean_ms, 41.0, 2.0);

  // The chain holds a tamper-evident record.
  EXPECT_TRUE(system.chain().verify_integrity());
}

TEST_F(SystemFixture, ResultsVerifiableByThirdParty) {
  auto handle = initiator.purchase_rtt_measurement(
      {1, 2}, {3, 1}, Protocol::kTcp, 5, 100);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();

  // A third party only needs the chain + the AS public keys.
  const auto client_pk = system.as_public_key(1);
  ASSERT_TRUE(client_pk.ok());
  EXPECT_TRUE(executor::verify_certified(outcome->client, &*client_pk));
  const auto server_pk = system.as_public_key(3);
  ASSERT_TRUE(server_pk.ok());
  EXPECT_TRUE(executor::verify_certified(outcome->server, &*server_pk));

  // The wrong AS key must not verify (no AS can impersonate another).
  const auto other_pk = system.as_public_key(2);
  ASSERT_TRUE(other_pk.ok());
  EXPECT_FALSE(executor::verify_certified(outcome->client, &*other_pk));
}

TEST_F(SystemFixture, TamperedOnChainResultDetected) {
  auto handle = initiator.purchase_rtt_measurement(
      {1, 2}, {2, 1}, Protocol::kUdp, 5, 100);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();

  // Forge a better-looking result and check it cannot pass verification
  // against the AS key.
  executor::CertifiedResult forged = outcome->client;
  forged.record.output.clear();  // "no loss, no samples"
  const auto pk = system.as_public_key(1);
  EXPECT_FALSE(executor::verify_certified(forged, &*pk));

  // Re-signing with a different key changes the signer and fails the
  // expected-signer binding.
  const crypto::KeyPair attacker = crypto::KeyPair::from_seed(666);
  executor::CertifiedResult resigned = executor::certify(forged.record,
                                                         attacker);
  EXPECT_TRUE(executor::verify_certified(resigned));  // self-consistent...
  EXPECT_FALSE(executor::verify_certified(resigned, &*pk));  // ...but not AS1
}

TEST_F(SystemFixture, ExecutorsEarnTokens) {
  const chain::Mist before =
      system.chain().balance(system.agent({1, 2}).value()->address());
  auto handle = initiator.purchase_rtt_measurement(
      {1, 2}, {2, 1}, Protocol::kUdp, 5, 100);
  ASSERT_TRUE(handle.ok());
  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();
  // AS1 and AS2 share the operator funding; AS1's agent reported one
  // result and earned the slot price (gas costs offset part of it, so
  // compare against the exact flow recorded by the receipt).
  const chain::Mist after =
      system.chain().balance(system.agent({1, 2}).value()->address());
  EXPECT_NE(after, before);
}

TEST_F(SystemFixture, ConcurrentMeasurementsOnDisjointExecutors) {
  auto h1 = initiator.purchase_rtt_measurement({1, 2}, {2, 1},
                                               Protocol::kUdp, 5, 100);
  ASSERT_TRUE(h1.ok()) << h1.error_message();
  auto h2 = initiator.purchase_rtt_measurement({4, 2}, {5, 1},
                                               Protocol::kIcmp, 5, 100);
  ASSERT_TRUE(h2.ok()) << h2.error_message();
  auto o1 = initiator.await_result(*h1);
  ASSERT_TRUE(o1.ok()) << o1.error_message();
  auto o2 = initiator.await_result(*h2);
  ASSERT_TRUE(o2.ok()) << o2.error_message();
  EXPECT_EQ(o1->client.record.exit_value, 5);
  EXPECT_EQ(o2->client.record.exit_value, 5);
}

TEST_F(SystemFixture, CollectBeforeCompletionFails) {
  auto handle = initiator.purchase_rtt_measurement(
      {1, 2}, {2, 1}, Protocol::kUdp, 5, 100);
  ASSERT_TRUE(handle.ok());
  auto premature = initiator.collect(*handle);
  EXPECT_FALSE(premature.ok());
  EXPECT_NE(premature.error_message().find("not yet published"),
            std::string::npos);
}

TEST_F(SystemFixture, UnknownExecutorPairFails) {
  auto handle = initiator.purchase_rtt_measurement(
      {1, 2}, {9, 1}, Protocol::kUdp, 5, 100);
  EXPECT_FALSE(handle.ok());
}

TEST_F(SystemFixture, InitiatorSpendsTrackedFunds) {
  const chain::Mist before = initiator.balance();
  auto handle = initiator.purchase_rtt_measurement(
      {1, 2}, {2, 1}, Protocol::kUdp, 5, 100);
  ASSERT_TRUE(handle.ok());
  EXPECT_LT(initiator.balance(), before);
  EXPECT_GE(initiator.total_spent(), handle->price_paid);
}

// --- Unidirectional (one-way) measurements (paper §III) --------------------

TEST_F(SystemFixture, OneWayMeasurementViaMarketplace) {
  const auto& topo = system.network().topology();
  const topology::InterfaceKey sender_key{1, 2};
  const topology::InterfaceKey receiver_key{4, 1};

  apps::OneWaySenderParams sender;
  sender.protocol = Protocol::kUdp;
  sender.receiver = topo.address_of(receiver_key);
  sender.receiver_port = 43210;
  sender.packet_count = 8;
  sender.interval_ms = 100;

  apps::OneWayReceiverParams receiver;
  receiver.protocol = Protocol::kUdp;
  receiver.expected_packets = 8;
  receiver.idle_timeout_ms = 3000;

  MeasurementRequest request;
  request.client_key = sender_key;
  request.server_key = receiver_key;
  request.client_app.bytecode =
      apps::make_oneway_sender_debuglet().serialize();
  request.client_app.manifest =
      apps::client_manifest(Protocol::kUdp, topo.address_of(receiver_key), 8,
                            duration::seconds(30))
          .serialize();
  request.client_app.parameters = sender.to_parameters();
  request.server_app.bytecode =
      apps::make_oneway_receiver_debuglet().serialize();
  request.server_app.manifest =
      apps::server_manifest(Protocol::kUdp, topo.address_of(sender_key), 8,
                            duration::seconds(30))
          .serialize();
  request.server_app.parameters = receiver.to_parameters();
  request.server_app.listen_port = 43210;

  auto handle = initiator.purchase(request);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();

  EXPECT_FALSE(outcome->server.record.trapped)
      << outcome->server.record.trap_message;
  auto samples = apps::decode_samples(
      BytesView(outcome->server.record.output.data(),
                outcome->server.record.output.size()));
  ASSERT_TRUE(samples.ok()) << samples.error_message();
  ASSERT_EQ(samples->size(), 8u);
  // One-way delay: 3 links x 5 ms + transit + sender-side sandbox I/O.
  for (const auto& s : *samples) {
    EXPECT_NEAR(static_cast<double>(s.delay_ns) / 1e6, 15.5, 1.5)
        << "seq " << s.sequence;
  }
}

}  // namespace
}  // namespace debuglet::core
