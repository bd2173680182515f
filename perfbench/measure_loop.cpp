// measure_loop: one initiator runs the paper's unit of work (§IV-A) in a
// closed loop on an 8-AS chain with the default calendars — purchase an
// RTT measurement (10 UDP probes) between a seeded random executor pair,
// run the simulation past its window, collect and verify both certified
// results, and reclaim the application objects. Quote-, crypto- and
// chain-heavy; light on simnet and the DVM.
#include <cstdio>
#include <optional>

#include "apps/debuglets.hpp"
#include "common.hpp"
#include "core/initiator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace debuglet;

namespace {

constexpr std::int64_t kProbes = 10;
constexpr std::int64_t kIntervalMs = 100;
constexpr SimDuration kGrace = duration::seconds(2);

struct Pair {
  topology::InterfaceKey client;
  topology::InterfaceKey server;
};

/// The next seeded random executor pair whose endpoints sit in different
/// ASes.
Pair next_pair(const std::vector<topology::InterfaceKey>& keys, Rng& rng) {
  for (;;) {
    const auto& c = keys[rng.next_below(keys.size())];
    const auto& s = keys[rng.next_below(keys.size())];
    if (c.asn != s.asn) return Pair{c, s};
  }
}

/// A PurchaseSlot transaction as purchase_rtt_measurement signs it for
/// `pair`: the same Debuglets, manifests and parameters, for the first free
/// slot of each side. The crypto layer is timed over its signing bytes.
chain::Transaction purchase_transaction(core::DebugletSystem& system,
                                        const Pair& pair, std::uint64_t seed) {
  const auto& topo = system.network().topology();
  const net::Ipv4Address client_addr = topo.address_of(pair.client);
  const net::Ipv4Address server_addr = topo.address_of(pair.server);
  const std::int64_t recv_timeout_ms = kIntervalMs + 1000;
  const SimDuration budget =
      duration::milliseconds(kIntervalMs + recv_timeout_ms) * (kProbes + 2) +
      duration::seconds(5);
  constexpr std::uint16_t kPort = 40000;

  apps::ProbeClientParams client_params;
  client_params.server = server_addr;
  client_params.server_port = kPort;
  client_params.probe_count = kProbes;
  client_params.interval_ms = kIntervalMs;
  client_params.recv_timeout_ms = recv_timeout_ms;
  apps::EchoServerParams server_params;
  server_params.idle_timeout_ms = kIntervalMs * 3 + 2000;

  marketplace::PurchaseSlotArgs args;
  args.client_key = pair.client;
  args.server_key = pair.server;
  const auto client_slots = system.marketplace().available_slots(pair.client);
  const auto server_slots = system.marketplace().available_slots(pair.server);
  if (!client_slots.empty()) args.client_slot = client_slots.front();
  if (!server_slots.empty()) args.server_slot = server_slots.front();
  args.client_app.bytecode = apps::make_probe_client_debuglet().serialize();
  args.client_app.manifest =
      apps::client_manifest(net::Protocol::kUdp, server_addr, kProbes, budget)
          .serialize();
  args.client_app.parameters = client_params.to_parameters();
  args.server_app.bytecode = apps::make_echo_server_debuglet().serialize();
  args.server_app.manifest =
      apps::server_manifest(net::Protocol::kUdp, client_addr, kProbes, budget)
          .serialize();
  args.server_app.parameters = server_params.to_parameters();
  args.server_app.listen_port = kPort;
  return system.chain().make_transaction(
      crypto::KeyPair::from_seed(seed), marketplace::kContractName,
      "PurchaseSlot", args.serialize(),
      args.client_slot.price + args.server_slot.price, 1'000'000'000,
      marketplace::access_purchase_slot(pair.client, pair.server));
}

/// What the loop hands to the traced-mode layer report.
struct LoopTrace {
  SpanRecorder spans;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::uint64_t traced_ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::optional<executor::CertifiedResult> sample_result;
  topology::InterfaceKey sample_key;
};

/// Per-layer metrics of the traced mode: the loop's spans and obs
/// counters, then direct calls into single layers on workload inputs.
void report_layers(RunReport& report, const Options& opts,
                   core::DebugletSystem& system, const std::vector<Pair>& pairs,
                   const LoopTrace& loop) {
  for (const char* name :
       {"core.purchase", "core.collect", "core.reclaim", "simnet.run_until"}) {
    const auto d = loop.spans.durations_ms(name);
    report.layer(std::string(name) + "_ms", median(d), "ms", d.size(),
                 "median span");
  }
  const auto traced =
      static_cast<double>(std::max<std::uint64_t>(1, loop.traced_ops));
  report.layer("chain.tx_per_measurement",
               counter_total("chain.tx_submitted") / traced, "count",
               loop.traced_ops);
  report.layer("simnet.events",
               counter_total("simnet.event_queue.events") / traced, "count",
               loop.traced_ops, "events per measurement");
  const double sent = counter_total("simnet.packets_sent");
  report.layer("simnet.delivered_ratio",
               sent > 0 ? counter_total("simnet.packets_delivered") / sent : 0,
               "ratio", static_cast<std::uint64_t>(sent));
  report.layer("core.measurements_ok_ratio",
               loop.attempted ? static_cast<double>(loop.ok) /
                                    static_cast<double>(loop.attempted)
                              : 0.0,
               "ratio", loop.attempted, "verified / purchased");
  report_histogram_layer(report, "chain.block_build_ms",
                         "chain.block_build_ms", "ms", false);
  report_histogram_layer(report, "chain.batch_groups", "chain.batch.groups",
                         "count", true);
  report_histogram_layer(report, "executor.sandbox_setup_ms",
                         "executor.sandbox_setup_ms", "ms", false);
  report_trace_overhead(report, loop.traced_ms, loop.untraced_ms);
  finish_trace(report, loop.spans, opts, "measure", 0.9);

  std::vector<marketplace::LookupSlotArgs> lookups(std::min<std::size_t>(
      3, pairs.size()));
  for (std::size_t i = 0; i < lookups.size(); ++i) {
    lookups[i].client_key = pairs[i].client;
    lookups[i].server_key = pairs[i].server;
    lookups[i].earliest_start = system.queue().now();
  }
  report_quote_layer(report, system.chain(), lookups);

  report_crypto_layer(
      report, purchase_transaction(system, pairs.back(), opts.seed)
                  .signing_bytes(),
      opts.seed);

  if (loop.sample_result) {
    auto pk = system.as_public_key(loop.sample_key.asn);
    std::vector<double> us;
    bool all_ok = pk.ok();
    for (int i = 0; i < 15 && pk; ++i) {
      const auto t0 = Clock::now();
      all_ok = executor::verify_certified(*loop.sample_result, &*pk) && all_ok;
      us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    report.layer("executor.verify_certified_us", median(us), "us", us.size(),
                 "on a collected result");
    report.check(all_ok, "executor: collected result re-verifies");
  }
  report_vm_layer(report);
}

}  // namespace

RunReport run_measure_loop(const Options& opts) {
  RunReport report;
  if (opts.trace) obs::set_enabled(true);  // before the world is built

  SetupTimes setup;
  Pace pace;
  std::unique_ptr<core::DebugletSystem> world;
  build_chain_worlds(opts.seed, (kSetups + 1) / 2, setup, pace, world);
  core::DebugletSystem& system = *world;
  if (opts.trace) report_world_layers(report, system);

  // Generator: the initiator's key and funding, and the executor pairs.
  core::Initiator initiator(system, opts.seed ^ 0x1417u,
                            1'000'000'000'000'000ULL);
  const std::vector<topology::InterfaceKey> keys = system.executor_keys();
  Rng pair_rng(opts.seed ^ 0x3EA5u);
  std::vector<Pair> pairs;  // every pair measured, in order

  LoopTrace loop;
  obs::registry().reset_values();
  obs::set_enabled(false);

  Ops ops;
  std::uint64_t answered_short = 0;
  std::uint64_t slow_first_packet = 0;
  double busy_s = 0.0;
  RssAfter rss(40);

  pace.tick();
  for (std::uint64_t i = 0;; ++i) {
    if (busy_s >= opts.seconds || (opts.max_ops && i >= opts.max_ops)) break;
    pairs.push_back(next_pair(keys, pair_rng));
    const Pair& pair = pairs.back();
    const bool traced = traced_op(opts, i);
    SpanRecorder* rec = traced ? &loop.spans : nullptr;
    if (traced) obs::set_enabled(true);
    const SimTime requested_at = system.queue().now();

    bool ok = false;
    std::optional<core::MeasurementOutcome> outcome;
    const auto t0 = Clock::now();
    {
      ScopedSpan op(rec, "measure", i);
      Result<core::MeasurementHandle> handle = fail("not purchased");
      {
        ScopedSpan s(rec, "core.purchase", i);
        handle = initiator.purchase_rtt_measurement(
            pair.client, pair.server, net::Protocol::kUdp, kProbes,
            kIntervalMs, requested_at);
      }
      if (handle) {
        {
          ScopedSpan s(rec, "simnet.run_until", i);
          system.queue().run_until(handle->window_end + kGrace);
        }
        Result<core::MeasurementOutcome> collected = fail("not collected");
        {
          ScopedSpan s(rec, "core.collect", i);
          collected = initiator.collect(*handle);
        }
        if (collected) {
          Result<chain::Mist> rebate = fail("not reclaimed");
          {
            ScopedSpan s(rec, "core.reclaim", i);
            rebate = initiator.reclaim(*handle);
          }
          ok = rebate.ok();
          outcome = std::move(*collected);
        }
      }
    }
    const double ms = ms_between(t0, Clock::now());
    if (traced) {
      obs::set_enabled(false);
      ++loop.traced_ops;
    }
    pace.tick();
    busy_s += ms / 1e3;
    ops.add(ms, pace.scale(ms), ok ? 1.0 : 0.0);
    rss.done(ops.work.size());
    (traced ? loop.traced_ms : loop.untraced_ms).push_back(ms);

    // Output checks, outside the timed region.
    if (ok && outcome) {
      auto rtt = core::summarize_rtt(outcome->client, kProbes);
      if (!rtt || rtt->probes_answered != static_cast<std::size_t>(kProbes))
        ++answered_short;
      if (outcome->client.record.actual_start - requested_at >=
          duration::seconds(1))
        ++slow_first_packet;
      if (!loop.sample_result) {
        loop.sample_result = outcome->client;
        loop.sample_key = pair.client;
      }
      ++loop.ok;
    }
  }

  loop.attempted = ops.work.size();
  report.attempted = loop.attempted;
  report.failed = loop.attempted - loop.ok;
  report_end_to_end(report, std::move(ops),
                    "measurements (purchase through reclaim)", rss.mb(), pace);

  report.check(loop.attempted > 0 && loop.ok == loop.attempted,
               "measure_loop: every measurement purchased, run, collected "
               "(signature, AS key and on-chain copy verified) and reclaimed");
  report.check(answered_short == 0,
               "measure_loop: every probe answered on the lossless chain");
  report.check(slow_first_packet == 0,
               "measure_loop: purchase to first packet under 1 s simulated "
               "(paper V-B)");
  report.check(system.chain().verify_integrity(),
               "measure_loop: chain integrity holds at the end");
  if (opts.trace) report_layers(report, opts, system, pairs, loop);

  // The remaining set-ups, after the timed phase (see build_chain_worlds).
  std::unique_ptr<core::DebugletSystem> spare;
  build_chain_worlds(opts.seed, kSetups / 2, setup, pace, spare);
  report_setup(report, setup, opts.trace);
  return report;
}

}  // namespace perfbench
