// Integration tests for remote telemetry scraping (core/remote_stats):
// purchase a slot pair, deploy stats Debuglets, scrape one executor's
// registry over the simulated network from another AS, and check the
// merged remote-labelled rows equal the in-process values on the serving
// host — deterministically across identical runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/initiator.hpp"
#include "core/localization.hpp"
#include "core/remote_stats.hpp"
#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "obs/wire.hpp"
#include "simnet/link_faults.hpp"
#include "simnet/scenarios.hpp"

namespace debuglet::core {
namespace {

constexpr topology::AsNumber kChainAses = 4;

// Everything one scrape run produces, captured while the run's scoped
// registry is still installed (the values, not the registry, outlive it).
struct RunResult {
  std::string error;  // empty on success
  ScrapeReport report;
  std::vector<obs::MetricRow> merged;   // merged registry snapshot
  std::string remote_label;             // the serving executor's address
  std::uint64_t local_admitted = 0;     // in-process counter at scrape end
  std::uint64_t remote_admitted = 0;    // same counter via the scrape
  SimTime finished_at = 0;
};

// Optional wire chaos for run_scrape: the plan is installed on EVERY
// directed inter-domain link after the stats pair boots, so only the
// scrape traffic itself crosses damaged wires; `max_attempts`/`deadline`
// override the scrape budget (0 keeps the defaults).
struct ScrapeChaos {
  simnet::LinkFaultPlan plan;
  std::uint32_t max_attempts = 0;
  SimDuration deadline = 0;
};

// Builds a chain scenario, purchases a stats pair (serving executor at
// AS4#1, partner at AS1#2), scrapes AS4#1 from a host in AS1, and merges
// the result into a fresh registry.
RunResult run_scrape(std::uint64_t seed, const ScrapeChaos* chaos = nullptr) {
  RunResult out;
  obs::ScopedRegistry scoped;  // executors cache pointers into this
  DebugletSystem system(simnet::build_chain_scenario(kChainAses, seed, 5.0));
  Initiator initiator(system, seed + 1, 500'000'000'000ULL);
  const auto scraper_addr = system.network().allocate_host_address(1);

  StatsPairRequest request;
  request.first_key = topology::InterfaceKey{kChainAses, 1};
  request.second_key = topology::InterfaceKey{1, 2};
  request.scraper_address = scraper_addr;
  auto deployment = purchase_stats_pair(initiator, system, request);
  if (!deployment) {
    out.error = "purchase: " + deployment.error_message();
    return out;
  }

  // Let the serving Debuglet boot after its window opens, then scrape.
  system.queue().run_until(deployment->handle.window_start +
                           duration::seconds(1));
  SimDuration deadline = duration::seconds(4);
  ScrapeConfig config;
  config.target = deployment->first_address;
  config.target_port = deployment->first_port;
  if (chaos != nullptr) {
    for (topology::AsNumber i = 0; i + 1 < kChainAses; ++i) {
      for (const auto& [from, to] :
           {std::pair{simnet::chain_egress(i), simnet::chain_ingress(i + 1)},
            std::pair{simnet::chain_ingress(i + 1),
                      simnet::chain_egress(i)}}) {
        if (auto s = system.network().install_link_faults(from, to,
                                                          chaos->plan);
            !s) {
          out.error = "install: " + s.error_message();
          return out;
        }
      }
    }
    if (chaos->max_attempts > 0)
      config.max_attempts = chaos->max_attempts;
    if (chaos->deadline > 0) deadline = chaos->deadline;
  }
  auto report = scrape_once(system, scraper_addr, config,
                            system.queue().now() + deadline);
  if (!report) {
    out.error = "scrape: " + report.error_message();
    return out;
  }
  out.report = *report;
  out.remote_label = deployment->first_address.to_string();
  out.finished_at = system.queue().now();

  obs::MetricsRegistry merged;
  if (auto s = obs::wire::merge_rows(merged, report->rows, out.remote_label);
      !s) {
    out.error = "merge: " + s.error_message();
    return out;
  }
  out.merged = merged.snapshot();

  // The serving executor's admission counter is stable once the stats
  // Debuglet is deployed, so the snapshot frozen at scrape time must match
  // the live in-process value.
  const obs::Labels local_labels{{"as", std::to_string(kChainAses)},
                                 {"intf", "1"}};
  obs::Labels remote_labels = local_labels;
  remote_labels.emplace_back(obs::wire::kRemoteHostLabel, out.remote_label);
  out.local_admitted =
      scoped.get()
          .counter("executor.deployments_admitted", local_labels)
          .value();
  out.remote_admitted =
      merged.counter("executor.deployments_admitted", remote_labels).value();
  return out;
}

TEST(RemoteStats, ScrapeMatchesInProcessRegistry) {
  RunResult run = run_scrape(7);
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(run.report.complete);
  EXPECT_GT(run.report.chunks, 1u);  // a real snapshot spans chunks
  EXPECT_GE(run.report.requests_sent, run.report.chunks);
  EXPECT_FALSE(run.report.rows.empty());

  // The serving host admitted at least the two stats Debuglets' pair-mate
  // deployments; whatever the exact count, remote must equal local.
  EXPECT_GT(run.local_admitted, 0u);
  EXPECT_EQ(run.remote_admitted, run.local_admitted);

  // Every merged row carries the remote_host label with the serving
  // executor's address.
  ASSERT_FALSE(run.merged.empty());
  for (const obs::MetricRow& row : run.merged) {
    bool labelled = false;
    for (const auto& [k, v] : row.labels)
      labelled = labelled ||
                 (k == obs::wire::kRemoteHostLabel && v == run.remote_label);
    EXPECT_TRUE(labelled) << row.name << " lacks remote_host label";
  }
}

// One metric profiles the chain with a REAL clock (wall_now_us); its
// recorded values legitimately differ between runs. Everything else —
// including that row's name, labels, and count, which are driven by
// simulated events — must be identical.
bool wall_clock_metric(const std::string& name) {
  return name == "chain.block_build_ms";
}

TEST(RemoteStats, DeterministicAcrossRuns) {
  RunResult a = run_scrape(21);
  RunResult b = run_scrape(21);
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_TRUE(b.error.empty()) << b.error;
  EXPECT_TRUE(a.report.complete);
  EXPECT_TRUE(b.report.complete);
  EXPECT_EQ(a.remote_admitted, b.remote_admitted);

  ASSERT_EQ(a.merged.size(), b.merged.size());
  for (std::size_t i = 0; i < a.merged.size(); ++i) {
    SCOPED_TRACE(a.merged[i].name);
    EXPECT_EQ(a.merged[i].name, b.merged[i].name);
    EXPECT_EQ(a.merged[i].labels, b.merged[i].labels);
    EXPECT_EQ(a.merged[i].kind, b.merged[i].kind);
    EXPECT_EQ(a.merged[i].count, b.merged[i].count);
    if (wall_clock_metric(a.merged[i].name)) continue;
    EXPECT_EQ(a.merged[i].value, b.merged[i].value);
    EXPECT_EQ(a.merged[i].sum, b.merged[i].sum);
    EXPECT_EQ(a.merged[i].hist_buckets, b.merged[i].hist_buckets);
  }

  // Different seed → a genuinely different world (sanity that the
  // determinism check above is not vacuous).
  RunResult c = run_scrape(22);
  ASSERT_TRUE(c.error.empty()) << c.error;
  EXPECT_TRUE(c.report.complete);
}

TEST(RemoteStats, LocalizationAttachesScrapedEvidence) {
  // A fault localizer with an evidence collector that, for each FAULTY
  // step, deploys a stats pair at the segment's endpoint executors and
  // scrapes the server side — so the localization report carries the
  // remote executor's own counters as supporting evidence.
  obs::ScopedRegistry scoped;
  DebugletSystem system(simnet::build_chain_scenario(kChainAses, 777, 5.0));
  Initiator initiator(system, 31415, 2'000'000'000'000ULL);
  const auto scraper_addr = system.network().allocate_host_address(1);

  // Delay fault on link 1 (between hops 1 and 2), both directions.
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

  auto path = system.network().topology().shortest_path(1, kChainAses);
  ASSERT_TRUE(path.ok());
  FaultCriteria criteria;
  criteria.per_link_rtt_ms = 10.5;
  criteria.slack_ms = 15.0;
  criteria.max_loss = 0.2;
  FaultLocalizer localizer(system, initiator, *path, criteria,
                           net::Protocol::kUdp, 8, 100);
  localizer.set_evidence_collector(
      [&](const LocalizationStep& step, topology::InterfaceKey client_key,
          topology::InterfaceKey server_key) -> std::vector<obs::MetricRow> {
        if (!step.faulty) return {};  // only pay for evidence on suspects
        StatsPairRequest request;
        request.first_key = server_key;
        request.second_key = client_key;
        request.scraper_address = scraper_addr;
        auto deployment = purchase_stats_pair(initiator, system, request);
        if (!deployment) return {};
        system.queue().run_until(deployment->handle.window_start +
                                 duration::seconds(1));
        ScrapeConfig config;
        config.target = deployment->first_address;
        config.target_port = deployment->first_port;
        auto scraped = scrape_once(system, scraper_addr, config,
                                   system.queue().now() +
                                       duration::seconds(4));
        if (!scraped) return {};
        return scraped->rows;
      });

  auto report = localizer.run(Strategy::kLinearSequential);
  ASSERT_TRUE(report.ok()) << report.error_message();
  ASSERT_TRUE(report->located);
  EXPECT_EQ(report->fault_link, 1u);

  // The healthy first step carries no evidence; the faulty step does, and
  // its scraped admission counter for the segment's server executor
  // (AS3#1) matches the live in-process value.
  ASSERT_EQ(report->steps.size(), 2u);
  EXPECT_TRUE(report->steps[0].evidence.empty());
  const auto& evidence = report->steps[1].evidence;
  ASSERT_FALSE(evidence.empty());
  const obs::Labels server_labels{{"as", "3"}, {"intf", "1"}};
  bool found = false;
  for (const obs::MetricRow& row : evidence) {
    if (row.name != "executor.deployments_admitted" ||
        row.labels != server_labels)
      continue;
    found = true;
    EXPECT_EQ(row.count,
              scoped.get()
                  .counter("executor.deployments_admitted", server_labels)
                  .value());
    EXPECT_GT(row.count, 0u);
  }
  EXPECT_TRUE(found) << "no admission counter for AS3#1 in the evidence";
}

TEST(RemoteStats, ScrapeConvergesThroughDamagedLinks) {
  // Corruption + duplication on every directed link of the chain while
  // the scrape runs. Damaged chunks are rejected by the chunk digest and
  // re-requested; duplicated responses are absorbed by the assembler —
  // and the reassembled remote registry still equals the live one.
  ScrapeChaos chaos;
  chaos.plan.corrupt(80.0, 6).duplicate(150.0, 1);
  chaos.max_attempts = 10;
  chaos.deadline = duration::seconds(30);
  RunResult run = run_scrape(91, &chaos);
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_TRUE(run.report.complete);
  EXPECT_GT(run.report.corrupt_rejected + run.report.duplicate_chunks, 0u)
      << "the chaos plan never touched the scrape; the test is vacuous";
  EXPECT_GT(run.local_admitted, 0u);
  EXPECT_EQ(run.remote_admitted, run.local_admitted)
      << "wire damage leaked into the reassembled snapshot";
}

TEST(RemoteStats, ScrapeFailsTypedWhenEveryFrameIsDestroyed) {
  // 100% truncation: no chunk request ever reaches the serving Debuglet.
  // The scrape must give up with a typed error within its budget, not
  // hang or return a partial snapshot as complete.
  ScrapeChaos chaos;
  chaos.plan.truncate(1000.0);
  chaos.max_attempts = 3;
  chaos.deadline = duration::seconds(8);
  RunResult run = run_scrape(92, &chaos);
  ASSERT_FALSE(run.error.empty());
  EXPECT_NE(run.error.find("scrape:"), std::string::npos) << run.error;
}

TEST(RemoteStats, ScrapeGivesUpWhenNothingListens) {
  obs::ScopedRegistry scoped;
  DebugletSystem system(simnet::build_chain_scenario(kChainAses, 5, 5.0));
  const auto scraper_addr = system.network().allocate_host_address(1);
  // A routable executor address, but no stats Debuglet was deployed: every
  // chunk request times out and the scrape reports failure, not a hang.
  ScrapeConfig config;
  config.target = system.network().allocate_host_address(kChainAses);
  config.target_port = 45000;
  config.max_attempts = 3;
  auto report = scrape_once(system, scraper_addr, config,
                            system.queue().now() + duration::seconds(10));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(scoped.get().counter("core.scrapes_failed").value(), 1u);
  EXPECT_EQ(scoped.get().counter("core.scrapes_completed").value(), 0u);
}

}  // namespace
}  // namespace debuglet::core
