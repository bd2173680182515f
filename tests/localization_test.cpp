// Fault-localization tests (paper §IV-B Fig. 6 and §VI-D).
#include <gtest/gtest.h>

#include "core/debuglet.hpp"

namespace debuglet::core {
namespace {

using net::Protocol;

constexpr double kHopMs = 5.0;

struct LocalizationFixture : ::testing::Test {
  LocalizationFixture()
      : system(simnet::build_chain_scenario(kChainLength, 777, kHopMs)),
        initiator(system, 31415, 2'000'000'000'000ULL) {}

  static constexpr std::size_t kChainLength = 8;

  // Injects a persistent delay fault on the link after hop `link` (both
  // directions, so RTT measurements over it are clearly elevated).
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

  FaultLocalizer make_localizer() {
    auto path = system.network().topology().shortest_path(1, kChainLength);
    EXPECT_TRUE(path.ok());
    FaultCriteria criteria;
    criteria.per_link_rtt_ms = 2 * kHopMs + 0.5;
    criteria.slack_ms = 15.0;
    criteria.max_loss = 0.2;
    return FaultLocalizer(system, initiator, *path, criteria, Protocol::kUdp,
                          8, 100);
  }

  DebugletSystem system;
  Initiator initiator;
};

TEST_F(LocalizationFixture, SegmentMeasurementReflectsSubpath) {
  FaultLocalizer localizer = make_localizer();
  auto step = localizer.measure_segment(1, 4);
  ASSERT_TRUE(step.ok()) << step.error_message();
  EXPECT_FALSE(step->faulty);
  // 3 links x 2 x 5 ms + transit + sandbox I/O.
  EXPECT_NEAR(step->summary.mean_ms, 31.0, 2.0);
  EXPECT_EQ(step->summary.probes_answered, 8u);

  EXPECT_FALSE(localizer.measure_segment(3, 3).ok());
  EXPECT_FALSE(localizer.measure_segment(5, 99).ok());
}

class StrategyCase
    : public LocalizationFixture,
      public ::testing::WithParamInterface<std::tuple<Strategy, std::size_t>> {
};

TEST_P(StrategyCase, LocatesInjectedFault) {
  const auto [strategy, fault_link] = GetParam();
  inject_fault(fault_link, 60.0);
  FaultLocalizer localizer = make_localizer();
  auto report = localizer.run(strategy);
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_TRUE(report->located);
  EXPECT_EQ(report->fault_link, fault_link)
      << strategy_name(strategy) << " misplaced the fault";
  EXPECT_GT(report->measurements, 0u);
  EXPECT_GT(report->tokens_spent, 0u);
  EXPECT_GT(report->time_to_locate(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAndPositions, StrategyCase,
    ::testing::Combine(::testing::Values(Strategy::kLinearSequential,
                                         Strategy::kBinarySearch,
                                         Strategy::kParallelSweep),
                       ::testing::Values<std::size_t>(0, 3, 6)),
    [](const auto& info) {
      std::string name = strategy_name(std::get<0>(info.param)) + "_link" +
                         std::to_string(std::get<1>(info.param));
      std::erase(name, '-');  // gtest parameter names must be identifiers
      return name;
    });

TEST_F(LocalizationFixture, BinaryBeatsLinearOnFarFaults) {
  inject_fault(6, 60.0);  // last link of the 8-AS chain
  FaultLocalizer localizer = make_localizer();
  auto linear = localizer.run(Strategy::kLinearSequential);
  ASSERT_TRUE(linear.ok()) << linear.error_message();
  auto binary = localizer.run(Strategy::kBinarySearch);
  ASSERT_TRUE(binary.ok()) << binary.error_message();
  ASSERT_TRUE(linear->located);
  ASSERT_TRUE(binary->located);
  EXPECT_EQ(linear->fault_link, 6u);
  EXPECT_EQ(binary->fault_link, 6u);
  // Linear probes every link up to the fault (7 measurements); binary
  // needs 1 end-to-end check + ~log2(7) ≈ 3.
  EXPECT_EQ(linear->measurements, 7u);
  EXPECT_LE(binary->measurements, 4u);
  EXPECT_LT(binary->tokens_spent, linear->tokens_spent);
}

TEST_F(LocalizationFixture, HealthyPathReportsNothing) {
  FaultLocalizer localizer = make_localizer();
  auto report = localizer.run(Strategy::kBinarySearch);
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_FALSE(report->located);
  EXPECT_EQ(report->measurements, 1u) << "one end-to-end check suffices";
}

// Exact cost of one run per strategy on the fixture's healthy chain. Each
// purchased segment waits for its results, so a change to that wait (its
// deadline, its extension, a retry) moves the time or the token figure.
struct PinnedRun {
  Strategy strategy;
  std::size_t measurements;
  chain::Mist tokens_spent;
  std::int64_t seconds_to_locate;
};

class PinnedHealthyRun
    : public LocalizationFixture,
      public ::testing::WithParamInterface<PinnedRun> {};

TEST_P(PinnedHealthyRun, CostsStayExact) {
  const PinnedRun& pinned = GetParam();
  FaultLocalizer localizer = make_localizer();
  auto report = localizer.run(pinned.strategy);
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_FALSE(report->located);
  EXPECT_EQ(report->measurements, pinned.measurements);
  EXPECT_EQ(report->tokens_spent, pinned.tokens_spent);
  EXPECT_EQ(report->time_to_locate(),
            duration::seconds(pinned.seconds_to_locate));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PinnedHealthyRun,
    ::testing::Values(
        PinnedRun{Strategy::kLinearSequential, 7, 454'955'200, 142},
        PinnedRun{Strategy::kBinarySearch, 1, 64'993'600, 22},
        PinnedRun{Strategy::kParallelSweep, 7, 454'955'200, 22},
        PinnedRun{Strategy::kInband, 1, 0, 2}),
    [](const auto& info) {
      std::string name = strategy_name(info.param.strategy);
      std::erase(name, '-');
      return name;
    });

TEST_F(LocalizationFixture, LossFaultAlsoLocated) {
  simnet::FaultSpec fault;
  fault.extra_loss_pm = 600.0;  // 60% loss
  fault.start = 0;
  fault.end = duration::hours(100);
  ASSERT_TRUE(system.network()
                  .inject_fault(simnet::chain_egress(2),
                                simnet::chain_ingress(3), fault)
                  .ok());
  FaultLocalizer localizer = make_localizer();
  auto report = localizer.run(Strategy::kBinarySearch);
  ASSERT_TRUE(report.ok()) << report.error_message();
  ASSERT_TRUE(report->located);
  EXPECT_EQ(report->fault_link, 2u);
}

TEST_F(LocalizationFixture, IntraAsDerivation) {
  // Slow down the interior of AS4 (hop index 3) rather than a link.
  system.network().configure_transit(4, {25.0, 0.05, 0.0});
  FaultLocalizer localizer = make_localizer();
  auto derived = localizer.derive_intra_as(3);
  ASSERT_TRUE(derived.ok()) << derived.error_message();
  // Whole segment crosses AS4 twice (RTT) -> +50 ms over the two links.
  // intra_as = whole - left - right ≈ 2*25 - (small overlaps).
  EXPECT_NEAR(derived->intra_as_mean_ms(), 50.0, 15.0);
  EXPECT_FALSE(localizer.derive_intra_as(0).ok());
  EXPECT_FALSE(localizer.derive_intra_as(7).ok());
}

}  // namespace
}  // namespace debuglet::core
