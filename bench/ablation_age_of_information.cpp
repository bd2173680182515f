// Ablation A6: age of information (paper §VI-F).
//
// Fresh results drive live debugging; archived results answer "WHEN did
// this path start degrading?". The bench runs periodic marketplace
// measurements over a path, injects a fault at a secret time, archives the
// summaries (off-chain, Merkle-anchored on-chain per A3's pattern), and
// shows the trend analysis recovering the degradation onset to within one
// measurement period — plus the anchoring cost.
#include "bench_util.hpp"
#include "chain/chain.hpp"
#include "core/debuglet.hpp"
#include "core/history.hpp"

namespace {

using namespace debuglet;
using net::Protocol;

}  // namespace

int main() {
  bench::banner("Ablation A6 — age of information / degradation onset",
                "Debuglet (ICDCS'24), Section VI-F");
  bench::ShapeChecks checks;

  core::DebugletSystem system(simnet::build_chain_scenario(5, 4242, 5.0));
  core::Initiator initiator(system, 4243, 2'000'000'000'000ULL);
  core::MeasurementArchive archive(duration::hours(24));
  const core::DiagnosticKey diagnostic{{1, 2}, {5, 1}, Protocol::kUdp};

  // The fault appears at 7 minutes into the day, +45 ms on link 3.
  const SimTime fault_time = duration::minutes(7);
  simnet::FaultSpec fault;
  fault.extra_delay_ms = 45.0;
  fault.start = fault_time;
  fault.end = duration::hours(48);
  (void)system.network().inject_fault(simnet::chain_egress(2),
                                simnet::chain_ingress(3), fault);

  // One measurement per minute for 15 minutes (6 probes each).
  constexpr int kRounds = 15;
  std::printf("\nPeriodic diagnostic (1/min), fault injected at %s "
              "(hidden from the analysis):\n\n",
              format_time(fault_time).c_str());
  std::printf("%8s %10s %8s\n", "t", "RTT(ms)", "loss(%)");
  for (int round = 0; round < kRounds; ++round) {
    const SimTime when = duration::minutes(round);
    system.queue().run_until(when);
    auto handle = initiator.purchase_rtt_measurement(
        diagnostic.client, diagnostic.server, diagnostic.protocol, 6, 100,
        when);
    if (!handle) {
      std::printf("purchase: %s\n", handle.error_message().c_str());
      return 2;
    }
    auto outcome = initiator.await_result(*handle);
    if (!outcome) {
      std::printf("collect: %s\n", outcome.error_message().c_str());
      return 2;
    }
    auto summary = core::summarize_rtt(outcome->client, 6);
    if (!summary) return 2;
    archive.record(diagnostic, when, *summary);
    std::printf("%8s %10.2f %8.1f\n", format_time(when).c_str(),
                summary->mean_ms, 100.0 * summary->loss_rate());
  }

  const core::DegradationReport report =
      core::detect_degradation(archive.history(diagnostic), 15.0);
  if (report.degraded) {
    std::printf("\nTrend analysis: degradation onset at %s "
                "(baseline %.1f ms -> %.1f ms)\n",
                format_time(report.onset).c_str(), report.baseline_ms,
                report.degraded_ms);
  } else {
    std::printf("\nTrend analysis: no degradation found\n");
  }

  checks.check(report.degraded, "archived trend reveals the degradation");
  const SimDuration error =
      report.onset > fault_time ? report.onset - fault_time
                                : fault_time - report.onset;
  checks.check(report.degraded && error <= duration::minutes(1),
               "onset located within one measurement period");
  checks.check(report.degraded &&
                   std::abs(report.degraded_ms - report.baseline_ms - 45.0) <
                       8.0,
               "estimated magnitude matches the injected +45 ms");

  // On-chain anchoring (A3's pattern): one 32-byte object commits to the
  // whole archive; entries stay verifiable.
  const crypto::Digest anchor = archive.anchor(diagnostic);
  const chain::Mist anchor_cost = chain::submission_cost(32);
  std::printf("\nArchive: %zu entries; 32-byte anchor %s...\n",
              archive.total_entries(), anchor.hex().substr(0, 16).c_str());
  std::printf("Anchoring cost: %.5f SUI (vs %.5f SUI for the full archive "
              "on-chain)\n",
              chain::mist_to_sui(anchor_cost),
              chain::mist_to_sui(chain::submission_cost(
                  archive.total_entries() *
                  archive.history(diagnostic)[0].serialize().size())));
  auto proof = archive.prove(diagnostic, 3);
  const Bytes leaf = archive.history(diagnostic)[3].serialize();
  checks.check(proof.ok() &&
                   crypto::merkle_verify(anchor,
                                         BytesView(leaf.data(), leaf.size()),
                                         *proof),
               "archived entries verify against the on-chain anchor");
  return checks.summary();
}
