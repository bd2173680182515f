// Chaos-hardened control plane: executor kill/restart, byzantine signers,
// the initiator's result wait, resilient measurement retry/failover, and
// degraded-mode localization.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/debuglet.hpp"

namespace debuglet::core {
namespace {

using net::Protocol;

constexpr double kHopMs = 5.0;

ResilientRttRequest make_request(topology::InterfaceKey client,
                                 topology::InterfaceKey server) {
  ResilientRttRequest request;
  request.client_key = client;
  request.server_key = server;
  request.probe_count = 6;
  request.interval_ms = 100;
  return request;
}

TEST(Chaos, DeadExecutorTriggersFailoverToSameSegment) {
  DebugletSystem system(simnet::build_chain_scenario(6, 1234, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  // The server-side executor is dead before the purchase: its slots are
  // still on-chain (the chain has no liveness notion), so the first
  // attempt buys a slot nobody will serve.
  auto victim = system.agent(topology::InterfaceKey{5, 1});
  ASSERT_TRUE(victim.ok());
  (*victim)->kill();
  EXPECT_FALSE((*victim)->alive());

  auto rm = initiator.measure_rtt_resilient(
      make_request(topology::InterfaceKey{2, 2},
                   topology::InterfaceKey{5, 1}));
  ASSERT_TRUE(rm.ok()) << rm.error_message();
  EXPECT_GE(rm->attempts, 2u);
  EXPECT_GE(rm->failovers, 1u);
  // The surviving interface of the same AS serves the same segment.
  EXPECT_EQ(rm->server_key, (topology::InterfaceKey{5, 2}));
  auto summary = summarize_rtt(rm->outcome.client, 6);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->probes_answered, 6u);

  bool saw_missing = false, saw_failover = false;
  for (const MeasurementIncident& incident : rm->incidents) {
    saw_missing |= incident.kind == MeasurementIncident::Kind::kResultMissing;
    saw_failover |= incident.kind == MeasurementIncident::Kind::kFailover;
  }
  EXPECT_TRUE(saw_missing);
  EXPECT_TRUE(saw_failover);
}

TEST(Chaos, ByzantineResultIsRejectedThenRetried) {
  obs::ScopedRegistry scoped;
  DebugletSystem system(simnet::build_chain_scenario(6, 1234, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  auto liar = system.agent(topology::InterfaceKey{5, 1});
  ASSERT_TRUE(liar.ok());
  (*liar)->set_byzantine_mode(ByzantineMode::kBadSignature);

  auto rm = initiator.measure_rtt_resilient(
      make_request(topology::InterfaceKey{2, 2},
                   topology::InterfaceKey{5, 1}));
  ASSERT_TRUE(rm.ok()) << rm.error_message();
  EXPECT_GE(rm->byzantine_rejections, 1u);
  EXPECT_GE(rm->failovers, 1u);
  EXPECT_EQ(rm->server_key, (topology::InterfaceKey{5, 2}));
  EXPECT_GE(scoped.get().counter("core.results_rejected").value(), 1u);

  bool saw_rejection = false;
  for (const MeasurementIncident& incident : rm->incidents)
    saw_rejection |=
        incident.kind == MeasurementIncident::Kind::kVerificationRejected;
  EXPECT_TRUE(saw_rejection);
}

TEST(Chaos, TamperedOutputAlsoRejected) {
  DebugletSystem system(simnet::build_chain_scenario(4, 77, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  auto liar = system.agent(topology::InterfaceKey{3, 1});
  ASSERT_TRUE(liar.ok());
  (*liar)->set_byzantine_mode(ByzantineMode::kTamperedOutput);

  // Plain collect (no failover): the tampered side must classify as a
  // verification failure, NOT as "not yet published".
  auto handle = initiator.purchase_rtt_measurement(
      topology::InterfaceKey{2, 2}, topology::InterfaceKey{3, 1},
      Protocol::kUdp, 6, 100);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  system.queue().run_until(handle->window_end + duration::seconds(2));
  CollectProbe probe = initiator.try_collect(*handle);
  EXPECT_FALSE(probe.ok());
  EXPECT_EQ(probe.server.error, CollectErrorKind::kVerificationFailed);
  EXPECT_EQ(probe.client.error, CollectErrorKind::kNone);
}

TEST(Chaos, TryCollectDistinguishesNotYetPublished) {
  DebugletSystem system(simnet::build_chain_scenario(4, 77, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  auto handle = initiator.purchase_rtt_measurement(
      topology::InterfaceKey{1, 2}, topology::InterfaceKey{4, 1},
      Protocol::kUdp, 6, 100);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  // Before the window even starts nothing is published on either side.
  CollectProbe early = initiator.try_collect(*handle);
  EXPECT_FALSE(early.ok());
  EXPECT_EQ(early.client.error, CollectErrorKind::kNotPublished);
  EXPECT_EQ(early.server.error, CollectErrorKind::kNotPublished);
  EXPECT_TRUE(early.any(CollectErrorKind::kNotPublished));
  // After the window both publish and the probe carries the outcome.
  system.queue().run_until(handle->window_end + duration::seconds(2));
  CollectProbe late = initiator.try_collect(*handle);
  EXPECT_TRUE(late.ok());
  EXPECT_EQ(late.client.error, CollectErrorKind::kNone);
}

TEST(AwaitResult, HealthyHandleReturnsAtWindowEndPlusGrace) {
  DebugletSystem system(simnet::build_chain_scenario(4, 77, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  auto handle = initiator.purchase_rtt_measurement(
      topology::InterfaceKey{1, 2}, topology::InterfaceKey{4, 1},
      Protocol::kUdp, 6, 100);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();
  EXPECT_EQ(system.queue().now(), handle->window_end + kResultGrace);
}

TEST(AwaitResult, RunOutlastingTheWindowIsCollectedWhenItEnds) {
  DebugletSystem system(simnet::build_chain_scenario(4, 77, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  // 24 probes a second apart outlast the 20 s slot window, and the echo
  // server idles out seconds after the last probe: both results publish
  // well after window_end.
  auto handle = initiator.purchase_rtt_measurement(
      topology::InterfaceKey{1, 2}, topology::InterfaceKey{4, 1},
      Protocol::kUdp, 24, 1000);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  // Each manifest budgets (interval + receive timeout) x (probes + 2)
  // plus 5 s: 3 s x 26 + 5 s.
  EXPECT_EQ(handle->run_deadline,
            handle->window_start + duration::seconds(83));
  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();
  const SimTime last_end = std::max(outcome->client.record.end_time,
                                    outcome->server.record.end_time);
  EXPECT_GT(last_end, handle->window_end + 2 * kResultGrace)
      << "a wait that stops one grace after the first must miss it";
  // Collected at the first kResultGrace step at or after the last result.
  const SimTime now = system.queue().now();
  EXPECT_GE(now, last_end);
  EXPECT_LT(now, last_end + kResultGrace);
  EXPECT_EQ((now - handle->window_end) % kResultGrace, 0);
}

TEST(AwaitResult, KilledExecutorFailsLikeCollectAfterTwoGraces) {
  DebugletSystem system(simnet::build_chain_scenario(4, 77, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  auto victim = system.agent(topology::InterfaceKey{4, 1});
  ASSERT_TRUE(victim.ok());
  (*victim)->kill();
  auto handle = initiator.purchase_rtt_measurement(
      topology::InterfaceKey{1, 2}, topology::InterfaceKey{4, 1},
      Protocol::kUdp, 6, 100);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  // A short run ends inside its window: the wait keeps its one extension.
  ASSERT_LE(handle->run_deadline, handle->window_end + kResultGrace);
  auto outcome = initiator.await_result(*handle);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(system.queue().now(), handle->window_end + 2 * kResultGrace);
  EXPECT_EQ(outcome.error_message().rfind("not-published: ", 0), 0u)
      << outcome.error_message();
  EXPECT_EQ(outcome.error_message(),
            initiator.collect(*handle).error_message());
}

TEST(AwaitResult, KilledExecutorOnALongRunFailsAfterItsRunDeadline) {
  DebugletSystem system(simnet::build_chain_scenario(4, 77, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  auto victim = system.agent(topology::InterfaceKey{4, 1});
  ASSERT_TRUE(victim.ok());
  (*victim)->kill();
  auto handle = initiator.purchase_rtt_measurement(
      topology::InterfaceKey{1, 2}, topology::InterfaceKey{4, 1},
      Protocol::kUdp, 24, 1000);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  ASSERT_GT(handle->run_deadline, handle->window_end + kResultGrace);
  auto outcome = initiator.await_result(*handle);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(system.queue().now(), handle->run_deadline + kResultGrace);
  EXPECT_EQ(outcome.error_message(),
            initiator.collect(*handle).error_message());
}

TEST(Chaos, KilledAgentServesAgainAfterRestart) {
  DebugletSystem system(simnet::build_chain_scenario(4, 4321, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  auto agent = system.agent(topology::InterfaceKey{3, 1});
  ASSERT_TRUE(agent.ok());
  (*agent)->kill();
  (*agent)->kill();  // idempotent
  ASSERT_TRUE((*agent)->restart().ok());
  EXPECT_TRUE((*agent)->alive());

  auto rm = initiator.measure_rtt_resilient(
      make_request(topology::InterfaceKey{2, 2},
                   topology::InterfaceKey{3, 1}));
  ASSERT_TRUE(rm.ok()) << rm.error_message();
  EXPECT_EQ(rm->attempts, 1u) << "a restarted executor serves first try";
  EXPECT_EQ(rm->failovers, 0u);
}

TEST(Chaos, SameSeedProducesIdenticalRetryFailoverTrace) {
  auto run_once = [](std::string& trace) {
    DebugletSystem system(simnet::build_chain_scenario(6, 777, kHopMs));
    Initiator initiator(system, 99, 2'000'000'000'000ULL);
    auto victim = system.agent(topology::InterfaceKey{5, 1});
    ASSERT_TRUE(victim.ok());
    (*victim)->kill();
    auto rm = initiator.measure_rtt_resilient(
        make_request(topology::InterfaceKey{2, 2},
                     topology::InterfaceKey{5, 1}));
    ASSERT_TRUE(rm.ok()) << rm.error_message();
    trace = rm->trace();
  };
  std::string first, second;
  run_once(first);
  run_once(second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second)
      << "chaos runs must be bit-identical under one seed";
}

TEST(Chaos, CrashedHostLosesEveryProbe) {
  // A crashed HOST (as opposed to a killed agent) still publishes results
  // — the chain is out of band — but every probe through it is dropped.
  DebugletSystem system(simnet::build_chain_scenario(4, 11, kHopMs));
  Initiator initiator(system, 99, 2'000'000'000'000ULL);
  simnet::HostFaultPlan plan;
  plan.crash(0, duration::hours(10));
  ASSERT_TRUE(system.network()
                  .install_host_faults(topology::InterfaceKey{4, 1}, plan)
                  .ok());
  auto handle = initiator.purchase_rtt_measurement(
      topology::InterfaceKey{1, 2}, topology::InterfaceKey{4, 1},
      Protocol::kUdp, 6, 100);
  ASSERT_TRUE(handle.ok()) << handle.error_message();
  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();
  auto summary = summarize_rtt(outcome->client, 6);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->probes_answered, 0u);
  EXPECT_DOUBLE_EQ(summary->loss_rate(), 1.0);
}

struct DegradedLocalizationFixture : ::testing::Test {
  DegradedLocalizationFixture()
      : system(simnet::build_chain_scenario(8, 777, kHopMs)),
        initiator(system, 31415, 4'000'000'000'000ULL) {}

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

  // Kills both border executors of `asn`: the AS goes completely dark, so
  // no failover within it can help and localization must degrade.
  void darken(topology::AsNumber asn) {
    for (topology::InterfaceId intf :
         system.network().topology().interfaces_of(asn)) {
      auto agent = system.agent(topology::InterfaceKey{asn, intf});
      ASSERT_TRUE(agent.ok());
      (*agent)->kill();
    }
  }

  FaultLocalizer make_localizer() {
    auto path = system.network().topology().shortest_path(1, 8);
    EXPECT_TRUE(path.ok());
    FaultCriteria criteria;
    criteria.per_link_rtt_ms = 2 * kHopMs + 0.5;
    criteria.slack_ms = 15.0;
    criteria.max_loss = 0.2;
    FaultLocalizer localizer(system, initiator, *path, criteria,
                             Protocol::kUdp, 8, 100);
    RetryPolicy retry;
    retry.max_attempts = 2;  // dark ASes fail fast
    localizer.set_resilience(retry);
    return localizer;
  }

  DebugletSystem system;
  Initiator initiator;
};

TEST_F(DegradedLocalizationFixture, LinearBracketsFaultAcrossDarkAs) {
  inject_fault(5, 60.0);
  darken(6);  // path hop 5: the AS on the near side of the faulty link
  FaultLocalizer localizer = make_localizer();
  auto report = localizer.run(Strategy::kLinearSequential);
  ASSERT_TRUE(report.ok()) << report.error_message();
  ASSERT_TRUE(report->located);
  EXPECT_FALSE(report->exact);
  EXPECT_LE(report->fault_link, 5u);
  EXPECT_GE(report->fault_link_hi, 5u);
  EXPECT_STREQ(report->confidence(), "bracketed");
  EXPECT_GT(report->segments_unmeasured, 0u);
  EXPECT_GT(report->links_unresolved, 0u);
  EXPECT_LT(report->coverage(), 1.0);
  EXPECT_FALSE(report->notes.empty());
}

TEST_F(DegradedLocalizationFixture, BinaryBracketsFaultAcrossDarkAs) {
  inject_fault(3, 60.0);
  darken(4);  // the preferred midpoint split for an 8-hop path
  FaultLocalizer localizer = make_localizer();
  auto report = localizer.run(Strategy::kBinarySearch);
  ASSERT_TRUE(report.ok()) << report.error_message();
  ASSERT_TRUE(report->located);
  EXPECT_LE(report->fault_link, 3u);
  EXPECT_GE(report->fault_link_hi, 3u);
  EXPECT_EQ(report->links_total, 7u);
}

TEST_F(DegradedLocalizationFixture, HealthyRunStaysExactAndFullCoverage) {
  inject_fault(5, 60.0);
  FaultLocalizer localizer = make_localizer();
  auto report = localizer.run(Strategy::kLinearSequential);
  ASSERT_TRUE(report.ok()) << report.error_message();
  ASSERT_TRUE(report->located);
  EXPECT_TRUE(report->exact);
  EXPECT_EQ(report->fault_link, 5u);
  EXPECT_EQ(report->fault_link_hi, 5u);
  EXPECT_STREQ(report->confidence(), "exact");
  EXPECT_DOUBLE_EQ(report->coverage(), 1.0);
  EXPECT_EQ(report->segments_unmeasured, 0u);
}

}  // namespace
}  // namespace debuglet::core
