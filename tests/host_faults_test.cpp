// Host-level fault injection: HostFaultPlan resolution properties and the
// network semantics of crashed / silent / slow hosts.
#include <gtest/gtest.h>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "simnet/host_faults.hpp"
#include "simnet/scenarios.hpp"
#include "util/rng.hpp"

namespace debuglet::simnet {
namespace {

TEST(HostFaultPlan, SeverityResolutionOnOverlap) {
  HostFaultPlan plan;
  plan.slow(0, duration::seconds(10), 25.0)
      .silent(duration::seconds(2), duration::seconds(8))
      .crash(duration::seconds(4), duration::seconds(6));

  EXPECT_EQ(plan.state_at(duration::seconds(1)).kind,
            HostFaultKind::kSlowHost);
  EXPECT_DOUBLE_EQ(plan.state_at(duration::seconds(1)).extra_delay_ms, 25.0);
  EXPECT_EQ(plan.state_at(duration::seconds(3)).kind,
            HostFaultKind::kSilentDrop);
  EXPECT_EQ(plan.state_at(duration::seconds(5)).kind, HostFaultKind::kCrash);
  // Crash ends at 6 (exclusive): silent-drop resumes, then slow, then none.
  EXPECT_EQ(plan.state_at(duration::seconds(6)).kind,
            HostFaultKind::kSilentDrop);
  EXPECT_EQ(plan.state_at(duration::seconds(9)).kind,
            HostFaultKind::kSlowHost);
  EXPECT_EQ(plan.state_at(duration::seconds(10)).kind, HostFaultKind::kNone);
}

TEST(HostFaultPlan, ZeroLengthAndInvertedWindowsAreInert) {
  HostFaultPlan plan;
  plan.crash(duration::seconds(5), duration::seconds(5));   // zero-length
  plan.silent(duration::seconds(9), duration::seconds(3));  // inverted
  for (SimTime t = 0; t <= duration::seconds(10); t += duration::seconds(1)) {
    EXPECT_EQ(plan.state_at(t).kind, HostFaultKind::kNone) << "t=" << t;
    EXPECT_TRUE(plan.serving_at(t));
    EXPECT_EQ(plan.recovered_after(t), t);
  }
}

TEST(HostFaultPlan, ConcurrentSlowWindowsAddDelays) {
  HostFaultPlan plan;
  plan.slow(0, duration::seconds(4), 10.0)
      .slow(duration::seconds(2), duration::seconds(6), 7.5);
  EXPECT_DOUBLE_EQ(plan.state_at(duration::seconds(1)).extra_delay_ms, 10.0);
  EXPECT_DOUBLE_EQ(plan.state_at(duration::seconds(3)).extra_delay_ms, 17.5);
  EXPECT_DOUBLE_EQ(plan.state_at(duration::seconds(5)).extra_delay_ms, 7.5);
  EXPECT_TRUE(plan.serving_at(duration::seconds(3)));  // slow still serves
}

TEST(HostFaultPlan, RecoveryWalksChainedOutages) {
  // Back-to-back and overlapping outage windows: recovery is the end of
  // the LAST window in the chain, not the first.
  HostFaultPlan plan;
  plan.crash(duration::seconds(1), duration::seconds(3))
      .silent(duration::seconds(3), duration::seconds(5))
      .crash(duration::seconds(4), duration::seconds(7));
  EXPECT_EQ(plan.recovered_after(duration::seconds(2)), duration::seconds(7));
  EXPECT_EQ(plan.recovered_after(duration::seconds(6)), duration::seconds(7));
  EXPECT_EQ(plan.recovered_after(duration::seconds(7)), duration::seconds(7));
  EXPECT_EQ(plan.recovered_after(0), 0) << "not yet crashed at t=0";
}

// The headline property: however windows overlap, a host is never
// simultaneously crashed (or silenced) and serving, recovery is always at
// or after the queried time, and the host truly serves at recovery.
TEST(HostFaultPlan, RandomizedPlansNeverCrashServingContradiction) {
  Rng rng(0xFA017);
  for (int trial = 0; trial < 200; ++trial) {
    HostFaultPlan plan;
    const int windows = static_cast<int>(rng.uniform(0.0, 6.0));
    for (int w = 0; w < windows; ++w) {
      HostFaultWindow window;
      const double pick = rng.uniform(0.0, 3.0);
      window.kind = pick < 1.0   ? HostFaultKind::kSlowHost
                    : pick < 2.0 ? HostFaultKind::kSilentDrop
                                 : HostFaultKind::kCrash;
      window.start = duration::milliseconds(
          static_cast<std::int64_t>(rng.uniform(0.0, 10'000.0)));
      // Bias toward overlapping and occasionally empty/inverted windows.
      window.end = window.start +
                   duration::milliseconds(static_cast<std::int64_t>(
                       rng.uniform(-2'000.0, 8'000.0)));
      window.extra_delay_ms = rng.uniform(0.0, 50.0);
      plan.add(window);
    }
    for (int sample = 0; sample < 50; ++sample) {
      const SimTime t = duration::milliseconds(
          static_cast<std::int64_t>(rng.uniform(0.0, 20'000.0)));
      const HostFaultState state = plan.state_at(t);
      // Serving and crashed/silent are mutually exclusive by construction.
      EXPECT_EQ(plan.serving_at(t), !(state.crashed() || state.silent()));
      // Only slow hosts carry a service delay.
      if (state.kind != HostFaultKind::kSlowHost) {
        EXPECT_DOUBLE_EQ(state.extra_delay_ms, 0.0);
      }
      // The resolved severity is the max over active windows.
      HostFaultKind expected = HostFaultKind::kNone;
      for (const HostFaultWindow& window : plan.windows())
        if (window.active_at(t) && window.kind > expected)
          expected = window.kind;
      EXPECT_EQ(state.kind, expected);
      // Recovery ordering: never in the past, and actually recovered.
      const SimTime recovered = plan.recovered_after(t);
      EXPECT_GE(recovered, t);
      EXPECT_TRUE(plan.serving_at(recovered));
      if (!plan.serving_at(t)) {
        EXPECT_GT(recovered, t);
      }
    }
  }
}

// Network-level semantics, driven through a tiny two-host exchange.
struct CountingHost : Host {
  void on_packet(const Delivery& delivery) override {
    ++received;
    last_received_at = delivery.received_at;
  }
  int received = 0;
  SimTime last_received_at = 0;
};

struct HostFaultNetFixture : ::testing::Test {
  HostFaultNetFixture() : scenario(build_chain_scenario(3, 99, 5.0)) {
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
    auto wire = net::build_probe(spec);
    if (!wire) return wire.error();
    return scenario.network->send(sender_addr, std::move(*wire));
  }

  obs::ScopedRegistry scoped;  // before the network: handles are cached
  Scenario scenario;
  net::Ipv4Address sender_addr, receiver_addr;
  CountingHost sender, receiver;
};

TEST_F(HostFaultNetFixture, CrashedSenderDropsEgressTraffic) {
  HostFaultPlan plan;
  plan.crash(0, duration::seconds(5));
  ASSERT_TRUE(
      scenario.network->install_host_faults(sender_addr, plan).ok());
  ASSERT_TRUE(send_probe(1).ok());
  scenario.queue->run();
  EXPECT_EQ(receiver.received, 0);
  EXPECT_EQ(scoped.get()
                .counter("simnet.host_fault_drops", {{"side", "egress"}})
                .value(),
            1u);
}

TEST_F(HostFaultNetFixture, CrashedReceiverDropsAtArrival) {
  HostFaultPlan plan;
  plan.crash(0, duration::hours(1));
  ASSERT_TRUE(
      scenario.network->install_host_faults(receiver_addr, plan).ok());
  ASSERT_TRUE(send_probe(1).ok());
  scenario.queue->run();
  EXPECT_EQ(receiver.received, 0);
  EXPECT_EQ(scoped.get()
                .counter("simnet.host_fault_drops", {{"side", "ingress"}})
                .value(),
            1u);
}

TEST_F(HostFaultNetFixture, SilentHostHearsButNeverAnswers) {
  // Silence the RECEIVER: inbound still delivers (it hears)...
  HostFaultPlan plan;
  plan.silent(0, duration::hours(1));
  ASSERT_TRUE(
      scenario.network->install_host_faults(receiver_addr, plan).ok());
  ASSERT_TRUE(send_probe(1).ok());
  scenario.queue->run();
  EXPECT_EQ(receiver.received, 1);
  // ...but anything it tries to send is swallowed at its own interface.
  net::ProbeSpec reply;
  reply.source = receiver_addr;
  reply.destination = sender_addr;
  reply.source_port = 40002;
  reply.destination_port = 40001;
  auto wire = net::build_probe(reply);
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(scenario.network->send(receiver_addr, std::move(*wire)).ok());
  scenario.queue->run();
  EXPECT_EQ(sender.received, 0);
}

TEST_F(HostFaultNetFixture, SlowHostAddsServiceDelayAndRecovers) {
  ASSERT_TRUE(send_probe(1).ok());
  scenario.queue->run();
  ASSERT_EQ(receiver.received, 1);
  const SimTime healthy_latency = receiver.last_received_at;

  HostFaultPlan plan;
  plan.slow(scenario.queue->now(),
            scenario.queue->now() + duration::seconds(5), 40.0);
  ASSERT_TRUE(
      scenario.network->install_host_faults(receiver_addr, plan).ok());
  const SimTime slow_sent_at = scenario.queue->now();
  ASSERT_TRUE(send_probe(2).ok());
  scenario.queue->run();
  ASSERT_EQ(receiver.received, 2);
  const SimTime slow_latency = receiver.last_received_at - slow_sent_at;
  EXPECT_GE(slow_latency, healthy_latency + duration::milliseconds(40));

  // Past the window the extra delay disappears (timed recovery).
  scenario.queue->run_until(slow_sent_at + duration::seconds(6));
  const SimTime recovered_sent_at = scenario.queue->now();
  ASSERT_TRUE(send_probe(3).ok());
  scenario.queue->run();
  ASSERT_EQ(receiver.received, 3);
  EXPECT_LT(receiver.last_received_at - recovered_sent_at,
            healthy_latency + duration::milliseconds(40));
}

TEST_F(HostFaultNetFixture, InstallValidatesAndClearRestores) {
  // An address in an AS the topology does not know is rejected.
  EXPECT_FALSE(scenario.network
                   ->install_host_faults(net::Ipv4Address{10, 99, 0, 77},
                                         HostFaultPlan{}.crash(0, 100))
                   .ok());

  HostFaultPlan plan;
  plan.crash(0, duration::hours(1));
  ASSERT_TRUE(
      scenario.network->install_host_faults(receiver_addr, plan).ok());
  EXPECT_TRUE(scenario.network->host_fault_state(receiver_addr, 0).crashed());
  scenario.network->clear_host_faults(receiver_addr);
  EXPECT_FALSE(
      scenario.network->host_fault_state(receiver_addr, 0).crashed());
  ASSERT_TRUE(send_probe(1).ok());
  scenario.queue->run();
  EXPECT_EQ(receiver.received, 1);
}

TEST_F(HostFaultNetFixture, PlanSurvivesDetachAndReattach) {
  // A plan belongs to the address, not to the host object attached there.
  HostFaultPlan plan;
  plan.crash(0, duration::hours(1));
  ASSERT_TRUE(
      scenario.network->install_host_faults(receiver_addr, plan).ok());
  scenario.network->detach_host(receiver_addr);
  CountingHost replacement;
  ASSERT_TRUE(scenario.network->attach_host(receiver_addr, &replacement).ok());
  EXPECT_TRUE(scenario.network->host_fault_state(receiver_addr, 0).crashed());

  ASSERT_TRUE(send_probe(1).ok());
  scenario.queue->run();
  EXPECT_EQ(replacement.received, 0);
  EXPECT_EQ(scoped.get()
                .counter("simnet.host_fault_drops", {{"side", "ingress"}})
                .value(),
            1u);

  scenario.network->clear_host_faults(receiver_addr);
  ASSERT_TRUE(send_probe(2).ok());
  scenario.queue->run();
  EXPECT_EQ(replacement.received, 1);
  EXPECT_EQ(receiver.received, 0);
}

}  // namespace
}  // namespace debuglet::simnet
