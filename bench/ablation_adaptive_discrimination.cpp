// Ablation: the detector-vs-learner arms race.
//
// The adversary is the ADAPTIVE middlebox (simnet/middlebox): fault hiding
// plus an online learner that promotes recurring measurement signatures
// into DPI verdicts. A detector that reuses the same twins (static source
// port, payload and pacing) trains its own adversary: after one warm-up
// visit the twins' shared signature crosses the learning horizon, the data
// twin gets exempted alongside the probe, and the differential the whole
// method rests on disappears. The randomized generator (per-round source
// ports, fresh entropy-matched payloads, pacing jitter) never recurs, so
// the learner starves and the SPRT names the AS as usual.
//
// This sweep measures post-warm-up detection/naming rates and the median
// rounds-to-decision as a function of the learning horizon (sightings
// until promotion), static vs. randomized twins. Small horizons collapse
// static detection; randomized detection must survive every horizon with
// no more median rounds than the legacy fixed-40 budget.
#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "core/discrimination.hpp"
#include "simnet/scenarios.hpp"

namespace {

using namespace debuglet;

constexpr topology::AsNumber kCheatAs = 3;

struct SweepPoint {
  double detection_rate = 0.0;
  double naming_rate = 0.0;  // detected AND named the cheating AS
  double median_rounds = 0.0;
};

simnet::Scenario adaptive_scenario(std::uint64_t seed,
                                   std::uint32_t promote_after) {
  simnet::Scenario s = simnet::build_chain_scenario(5, seed, 5.0);
  s.network->set_int_enabled(true);
  simnet::ClassPolicy slow;
  slow.extra_delay_ms = 25.0;
  slow.drop_pm = 60.0;
  simnet::MiddleboxPlan plan;
  plan.policy_all(slow).recognize_probe_signatures(true);
  const auto& topo = s.network->topology();
  for (topology::AsNumber as = 1; as <= 5; ++as) {
    plan.recognize(topo.address_of(topology::InterfaceKey{as, 1}));
    plan.recognize(topo.address_of(topology::InterfaceKey{as, 2}));
  }
  simnet::AdaptiveConfig adaptive;
  adaptive.enabled = true;
  adaptive.promote_after = promote_after;
  plan.adaptive(adaptive);
  if (!s.network->install_middlebox(kCheatAs, plan)) std::abort();
  return s;
}

SweepPoint run_arm(std::uint32_t promote_after, bool randomize,
                   std::uint64_t trials) {
  SweepPoint point;
  std::vector<std::uint64_t> rounds;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = 17000 + trial;
    simnet::Scenario s = adaptive_scenario(seed, promote_after);

    // Warm-up visit: the naive operator's STATIC check. Within one run its
    // identical twins recur every round, feeding the learner exactly the
    // recurrence it needs.
    {
      core::DiscriminationDetector warmup(*s.network, 1, 5, seed + 31,
                                          /*randomize_twins=*/false);
      if (!warmup.run()) std::abort();
    }

    // The measured visit: same seed (same static signature), static vs.
    // randomized generation.
    core::DiscriminationDetector detector(*s.network, 1, 5, seed + 31,
                                          randomize);
    auto twins = detector.run();
    if (!twins) std::abort();
    rounds.push_back(twins->rounds_used);
    if (twins->detected) {
      point.detection_rate += 1.0;
      if (twins->named_as() == kCheatAs) point.naming_rate += 1.0;
    }
  }
  point.detection_rate /= static_cast<double>(trials);
  point.naming_rate /= static_cast<double>(trials);
  std::sort(rounds.begin(), rounds.end());
  point.median_rounds = static_cast<double>(rounds[rounds.size() / 2]);
  return point;
}

}  // namespace

int main() {
  bench::banner(
      "Ablation — adaptive adversary vs. randomized twin probes",
      "Debuglet (ICDCS'24), Section VI-E arms race: learning DPI vs. SPRT");
  bench::Report report("adaptive_discrimination");
  const auto trials = static_cast<std::uint64_t>(
      bench::env_scale("DEBUGLET_BENCH_TRIALS", 6.0));

  const std::uint32_t horizons[] = {4, 8, 16};
  std::printf("\n%8s %11s | %14s %12s %14s\n", "horizon", "twins",
              "detection rate", "named AS3", "median rounds");
  std::printf("%.*s\n", 66,
              "------------------------------------------------------------"
              "------");

  double static_collapsed = 1.0;
  double randomized_named = 1.0;
  double randomized_rounds = 0.0;
  for (const std::uint32_t horizon : horizons) {
    for (const bool randomize : {false, true}) {
      const SweepPoint point = run_arm(horizon, randomize, trials);
      std::printf("%8u %11s | %14.2f %12.2f %14.0f\n", horizon,
                  randomize ? "randomized" : "static", point.detection_rate,
                  point.naming_rate, point.median_rounds);
      char label[32];
      std::snprintf(label, sizeof(label), "%u", horizon);
      const obs::Labels labels{
          {"horizon", label},
          {"twins", randomize ? "randomized" : "static"}};
      report.metric("adaptive_discrimination.detection_rate",
                    point.detection_rate, labels);
      report.metric("adaptive_discrimination.naming_rate", point.naming_rate,
                    labels);
      report.metric("adaptive_discrimination.median_rounds",
                    point.median_rounds, labels);
      if (randomize) {
        randomized_named = std::min(randomized_named, point.naming_rate);
        randomized_rounds = std::max(randomized_rounds, point.median_rounds);
      } else if (horizon <= 8) {
        static_collapsed = std::min(static_collapsed,
                                    1.0 - point.detection_rate);
      }
    }
  }

  report.check(static_collapsed == 1.0,
               "post-warm-up static twins are evaded at horizons <= 8 "
               "(the learner wins the naive arms race)");
  report.check(randomized_named >= 0.9,
               "randomized twins + SPRT name the cheating AS in >= 90% of "
               "trials at every horizon");
  report.check(randomized_rounds <= 40.0,
               "sequential testing needs no more median rounds than the "
               "legacy fixed-40 budget");
  return report.summary();
}
