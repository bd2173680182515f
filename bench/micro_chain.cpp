// Microbenchmarks of the blockchain substrate: transaction throughput
// (signature verification dominates), object storage, event dispatch, and
// chain-integrity verification.
//
// The custom main() first runs the parallel-execution scaling report —
// batches of pre-signed declared transactions executed at 1/2/4/8 workers,
// once uncontended (every transaction touches its own keys: one group per
// transaction) and once fully contended (every transaction writes one
// shared key: a single group) — and writes BENCH_chain_throughput.json via
// bench::Report before handing over to google-benchmark (so CI's
// `--benchmark_filter=-.*` run still produces the report). Every run is
// fingerprinted over the receipts and sealed block and checked
// bit-identical to the workers=1 run — the determinism contract of
// docs/CHAIN.md measured, not assumed. Each mode's fingerprint prints in
// hex and lands in the report as the `hex` label of a `fingerprint` row;
// CI compares both with the values committed in
// bench/baselines/chain_throughput.json, so a change that moves any
// signature, receipt or block root shows in its own diff.
// DEBUGLET_BENCH_HOURS scales the batch size; the speedup figures are
// reported but not gated (CI gates the workers=1 throughput against the
// committed baseline instead).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "chain/chain.hpp"
#include "util/rng.hpp"

namespace {

using namespace debuglet;
using namespace debuglet::chain;

class NopContract : public Contract {
 public:
  std::string name() const override { return "nop"; }
  Result<Bytes> call(CallContext& ctx, const std::string& function,
                     BytesView args) override {
    if (function == "store") {
      auto id = ctx.create_object(Bytes(args.begin(), args.end()));
      if (!id) return id.error();
      return Bytes{};
    }
    if (function == "emit") {
      ctx.emit_event("Tick", "key", Bytes{});
      return Bytes{};
    }
    if (function == "put") {
      BytesReader r(args);
      auto key = r.str();
      auto value = r.blob();
      if (!key || !value) return fail("bad put args");
      if (auto s = ctx.write_named(*key, std::move(*value)); !s)
        return s.error();
      return Bytes{};
    }
    return Bytes{};
  }
};

struct ChainState {
  ChainState() : key(crypto::KeyPair::from_seed(1)) {
    (void)chain.register_contract(std::make_unique<NopContract>());
    chain.mint(Address::of(key.public_key()), ~0ULL >> 1);
  }
  Blockchain chain;
  crypto::KeyPair key;
};

void BM_SubmitTransaction(benchmark::State& state) {
  ChainState s;
  for (auto _ : state) {
    auto receipt =
        s.chain.submit(s.chain.make_transaction(s.key, "nop", "noop", {}));
    benchmark::DoNotOptimize(receipt.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitTransaction);

void BM_SubmitWithStorage(benchmark::State& state) {
  ChainState s;
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    auto receipt = s.chain.submit(
        s.chain.make_transaction(s.key, "nop", "store", payload));
    benchmark::DoNotOptimize(receipt.ok());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SubmitWithStorage)->Arg(100)->Arg(10000);

void BM_EventDispatch(benchmark::State& state) {
  ChainState s;
  std::uint64_t delivered = 0;
  for (int i = 0; i < state.range(0); ++i)
    s.chain.subscribe("nop", "Tick", i % 2 ? "key" : "",
                      [&delivered](const Event&) { ++delivered; });
  for (auto _ : state) {
    auto receipt =
        s.chain.submit(s.chain.make_transaction(s.key, "nop", "emit", {}));
    benchmark::DoNotOptimize(receipt.ok());
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventDispatch)->Arg(1)->Arg(64);

void BM_VerifyIntegrity(benchmark::State& state) {
  ChainState s;
  for (int i = 0; i < state.range(0); ++i)
    (void)s.chain.submit(s.chain.make_transaction(s.key, "nop", "noop", {}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.chain.verify_integrity());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VerifyIntegrity)->Arg(100);

// --- Parallel-execution scaling report --------------------------------------

struct ThroughputRun {
  double wall_s = 0.0;
  std::size_t committed = 0;
  std::uint64_t fingerprint = 0;
};

/// One splitmix64 output from state `x`.
std::uint64_t mix(std::uint64_t x) { return splitmix64(x); }

std::uint64_t mix_str(std::uint64_t h, const std::string& s) {
  for (char c : s) h = mix(h ^ static_cast<std::uint8_t>(c));
  return h;
}

/// Builds one batch of `count` pre-signed declared transactions. In
/// contended mode every transaction writes the same named key (one
/// conflict group: the scheduler's serial floor); uncontended mode gives
/// every transaction its own key and sender (one group per transaction:
/// the scaling ceiling). Transactions are signed once and replayed on a
/// fresh chain per run, so the timed region measures verification +
/// scheduling + execution + commit, not signing.
struct Workload {
  std::vector<crypto::KeyPair> senders;
  std::vector<Transaction> txs;
};

Workload build_workload(std::size_t count, bool contended) {
  Workload w;
  Blockchain builder;
  for (std::size_t i = 0; i < count; ++i) {
    w.senders.push_back(crypto::KeyPair::from_seed(0xBE0C0000u + i));
    const std::string key =
        contended ? "hot" : "cold-" + std::to_string(i);
    BytesWriter args;
    args.str(key);
    args.blob(BytesView());
    AccessSet access;
    access.add_write(named_access_key("nop", key));
    w.txs.push_back(builder.make_transaction_with_nonce(
        w.senders.back(), 0, "nop", "put", args.take(), 0, 1'000'000'000,
        std::move(access)));
  }
  return w;
}

ThroughputRun run_throughput(const Workload& w, unsigned workers) {
  Blockchain chain;
  (void)chain.register_contract(std::make_unique<NopContract>());
  for (const auto& sender : w.senders)
    chain.mint(Address::of(sender.public_key()), 1'000'000'000'000ULL);
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = chain.submit_batch(w.txs, BatchOptions{workers});
  const auto t1 = std::chrono::steady_clock::now();

  ThroughputRun out;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  std::uint64_t fp = 0x9E3779B97F4A7C15ULL;
  for (const auto& r : results) {
    if (!r.ok()) {
      fp = mix_str(fp, r.error_message());
      continue;
    }
    ++out.committed;
    fp = mix(fp ^ (r->success ? 1 : 0));
    fp = mix(fp ^ r->gas_charged);
    fp = mix_str(fp, r->transaction_digest.hex());
  }
  const Block& tip = chain.block(chain.height() - 1);
  fp = mix_str(fp, tip.transactions_root.hex());
  out.fingerprint = fp;
  return out;
}

int throughput_report() {
  bench::banner("Parallel owned-object execution: tx/sec vs worker count",
                "chain scheduling substrate (docs/CHAIN.md)");
  bench::Report report("chain_throughput");

  // DEBUGLET_BENCH_HOURS scales the batch size (CI smoke uses 0.2 → 240
  // transactions; the committed baseline was taken at 1.0).
  const double scale = bench::env_scale("DEBUGLET_BENCH_HOURS", 1.0);
  const auto count = static_cast<std::size_t>(std::max(64.0, 1200.0 * scale));
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  report.metric("cpus", cpus);
  report.metric("batch_txs", static_cast<double>(count));

  for (const bool contended : {false, true}) {
    const char* mode = contended ? "contended" : "uncontended";
    const Workload w = build_workload(count, contended);
    ThroughputRun base;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      const ThroughputRun run = run_throughput(w, workers);
      const obs::Labels labels{{"mode", mode},
                               {"workers", std::to_string(workers)}};
      const double tx_per_s =
          run.wall_s > 0 ? static_cast<double>(count) / run.wall_s : 0;
      report.metric("tx_per_sec", tx_per_s, labels);
      report.metric("wall_s", run.wall_s, labels);
      if (workers == 1) {
        base = run;
      } else {
        report.metric("speedup_vs_1_worker",
                      base.wall_s > 0 ? base.wall_s / run.wall_s : 0, labels);
      }
      std::printf("  %-12s workers=%u  %9.0f tx/s  wall %.3fs%s\n", mode,
                  workers, tx_per_s, run.wall_s,
                  workers == 1 ? ""
                               : (run.fingerprint == base.fingerprint
                                      ? "  (identical)"
                                      : "  (DIVERGED)"));
      report.check(run.committed == count,
                   std::string(mode) + " workers=" + std::to_string(workers) +
                       " commits every transaction");
      report.check(run.fingerprint == base.fingerprint,
                   std::string(mode) + " workers=" + std::to_string(workers) +
                       " receipts and block root bit-identical to workers=1");
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(base.fingerprint));
    report.metric("fingerprint", 1, {{"mode", mode}, {"hex", hex}});
    std::printf("  %-12s fingerprint %s (receipts + block root)\n", mode, hex);
  }
  // Parallel speedup is only observable with real cores; on a 1-2 core CI
  // box the pool overhead dominates, so the wall-clock comparison is
  // reported but not gated here (CI gates the workers=1 figure against
  // the committed baseline instead).
  return report.summary();
}

}  // namespace

int main(int argc, char** argv) {
  const int report_rc = throughput_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return report_rc;
}
