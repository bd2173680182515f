// Microbenchmarks of the DVM: interpreter dispatch, memory ops, host
// calls, module parse+validate+instantiate (the paper's "environment
// setup"), and the assembler.
//
// The custom main() first times the interpreter's dispatch over an
// arithmetic loop and writes BENCH_vm_dispatch.json via bench::Report
// before handing over to google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include "apps/debuglets.hpp"
#include "vm/assembler.hpp"
#include "vm/builder.hpp"
#include "vm/interpreter.hpp"
#include "vm/validator.hpp"

namespace {

using namespace debuglet;
using namespace debuglet::vm;

Module arithmetic_loop(std::int64_t iterations) {
  ModuleBuilder b;
  b.memory(4096);
  auto& f = b.function(kEntryPointName, 0, 2);
  const auto top = f.make_label();
  const auto done = f.make_label();
  f.bind(top);
  f.local_get(0).constant(iterations).emit(Opcode::kGeS);
  f.jump_if(done);
  f.local_get(1).local_get(0).emit(Opcode::kMul);
  f.constant(7).emit(Opcode::kAdd);
  f.constant(1000003).emit(Opcode::kRemS);
  f.local_set(1);
  f.local_get(0).constant(1).emit(Opcode::kAdd).local_set(0);
  f.jump(top);
  f.bind(done);
  f.local_get(1).ret();
  return b.build();
}

void BM_InterpreterArithmetic(benchmark::State& state) {
  const auto iterations = state.range(0);
  Module m = arithmetic_loop(iterations);
  ExecutionLimits limits;
  limits.fuel = 1ULL << 40;
  auto instance = Instance::create(std::move(m), {}, limits);
  for (auto _ : state) {
    auto out = instance->run();
    benchmark::DoNotOptimize(out.value);
  }
  state.SetItemsProcessed(state.iterations() * iterations * 11);
}
BENCHMARK(BM_InterpreterArithmetic)->Arg(1000)->Arg(100000);

void BM_MemoryStoreLoad(benchmark::State& state) {
  ModuleBuilder b;
  b.memory(65536);
  auto& f = b.function(kEntryPointName, 0, 1);
  const auto top = f.make_label();
  const auto done = f.make_label();
  f.bind(top);
  f.local_get(0).constant(8192).emit(Opcode::kGeS).jump_if(done);
  f.local_get(0).local_get(0).emit(Opcode::kStore64);
  f.local_get(0).emit(Opcode::kLoad64).emit(Opcode::kDrop);
  f.local_get(0).constant(8).emit(Opcode::kAdd).local_set(0);
  f.jump(top);
  f.bind(done);
  f.constant(0).ret();
  ExecutionLimits limits;
  limits.fuel = 1ULL << 40;
  auto instance = Instance::create(b.build(), {}, limits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance->run().trapped);
  }
  state.SetItemsProcessed(state.iterations() * 1024 * 2);
}
BENCHMARK(BM_MemoryStoreLoad);

void BM_HostCallDispatch(benchmark::State& state) {
  ModuleBuilder b;
  b.memory(4096);
  auto& f = b.function(kEntryPointName, 0, 1);
  const auto top = f.make_label();
  const auto done = f.make_label();
  f.bind(top);
  f.local_get(0).constant(10000).emit(Opcode::kGeS).jump_if(done);
  f.call_host("nop_host").emit(Opcode::kDrop);
  f.local_get(0).constant(1).emit(Opcode::kAdd).local_set(0);
  f.jump(top);
  f.bind(done);
  f.constant(0).ret();
  std::vector<HostFunction> host;
  host.push_back(HostFunction{
      "nop_host", 0,
      [](Instance&, std::span<const std::int64_t>) -> Result<std::int64_t> {
        return 1;
      },
      false});
  ExecutionLimits limits;
  limits.fuel = 1ULL << 40;
  auto instance = Instance::create(b.build(), std::move(host), limits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance->run().host_calls);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_HostCallDispatch);

void BM_EnvironmentSetup(benchmark::State& state) {
  // The paper measures ~10 ms per instantiation; this benchmark reports
  // the DVM figure for a realistic Debuglet (the built-in probe client).
  const Bytes wire = apps::make_probe_client_debuglet().serialize();
  for (auto _ : state) {
    auto parsed = Module::parse(BytesView(wire.data(), wire.size()));
    if (!parsed || !validate(*parsed)) state.SkipWithError("bad module");
    auto instance = Instance::create(std::move(*parsed), {});
    benchmark::DoNotOptimize(instance.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_EnvironmentSetup);

void BM_Assemble(benchmark::State& state) {
  const std::string source = disassemble(apps::make_echo_server_debuglet());
  for (auto _ : state) {
    auto module = assemble(source);
    benchmark::DoNotOptimize(module.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(source.size()));
}
BENCHMARK(BM_Assemble);

void BM_Validate(benchmark::State& state) {
  const Module m = arithmetic_loop(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate(m).ok());
  }
}
BENCHMARK(BM_Validate);

// --- Dispatch report (BENCH_vm_dispatch.json) -------------------------------

int dispatch_report() {
  bench::banner("DVM dispatch: the interpreter on an arithmetic loop",
                "Debuglet sandbox overhead (Sec. 5, Fig. 8 context)");
  bench::Report report("vm_dispatch");

  constexpr std::int64_t kIterations = 200000;
  // ~12 source instructions per loop iteration (11 in-loop + back jump).
  const double ops = static_cast<double>(kIterations) * 12.0;
  ExecutionLimits limits;
  limits.fuel = 1ULL << 40;
  auto instance = Instance::create(arithmetic_loop(kIterations), {}, limits);
  if (!instance.ok()) {
    std::printf("instance creation failed\n");
    return 1;
  }

  // Best-of-N wall time for one full run of the loop.
  const int kReps = 7;
  double best_ns = 1e300;
  bool completed = true;
  for (int r = 0; r < kReps && completed; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const RunOutcome out = instance->run();
    const auto t1 = std::chrono::steady_clock::now();
    completed = !out.trapped;
    best_ns = std::min(
        best_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  report.check(completed, "the interpreter completes the arithmetic loop");
  if (!completed) return report.summary();

  report.metric("dispatch_ns_per_op", best_ns / ops);
  std::printf("  interpreter %.2f ns/op (%.1f M ops/s)\n", best_ns / ops,
              1e3 * ops / best_ns);
  return report.summary();
}

}  // namespace

int main(int argc, char** argv) {
  const int report_rc = dispatch_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return report_rc;
}
