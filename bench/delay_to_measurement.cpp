// Section V-B "delay-to-measurement" reproduction.
//
// The paper decomposes the delay between experiencing a fault and the
// first measurement packet into (1) blockchain operation latency (two
// transactions on the critical path: LookupSlot and PurchaseSlot, each
// sub-second on a modern chain), (2) the wait until the scheduled slot,
// and (3) the sandbox environment setup time, which they measure at a
// near-constant ~10 ms across bytecode sizes.
//
// This bench measures all three in the full system: real wall-clock DVM
// instantiation cost for growing modules, the simulated chain critical
// path, and the end-to-end purchase-to-first-packet delay.
#include <chrono>

#include "bench_util.hpp"
#include "core/debuglet.hpp"
#include "vm/builder.hpp"
#include "vm/validator.hpp"

namespace {

using namespace debuglet;

// Builds a validated module with roughly `instructions` instructions.
vm::Module synthetic_module(std::size_t instructions) {
  vm::ModuleBuilder b;
  b.memory(65536);
  auto& f = b.function(vm::kEntryPointName, 0, 1);
  for (std::size_t i = 0; i + 4 < instructions; i += 4) {
    f.constant(static_cast<std::int64_t>(i));
    f.local_get(0);
    f.emit(vm::Opcode::kAdd);
    f.local_set(0);
  }
  f.local_get(0);
  f.ret();
  return b.build();
}

}  // namespace

int main() {
  bench::banner("Delay-to-measurement decomposition",
                "Debuglet (ICDCS'24), Section V-B");
  bench::ShapeChecks checks;

  // --- (3) Environment setup time across bytecode sizes -------------------
  std::printf("\nSandbox environment setup (parse + validate + instantiate, "
              "wall clock):\n");
  std::printf("%12s %12s %14s\n", "bytecode(B)", "setup(us)", "modeled(ms)");
  // Sizes span the realistic Debuglet range: the built-in probe client is
  // ~1 kB, and a complex Debuglet stays within a few tens of kB.
  std::vector<double> setup_us;
  for (std::size_t instructions : {64u, 256u, 1024u, 4096u}) {
    const vm::Module module = synthetic_module(instructions);
    const Bytes wire = module.serialize();
    // Warm up then measure the median of several runs.
    std::vector<double> runs;
    for (int rep = 0; rep < 21; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      auto parsed = vm::Module::parse(BytesView(wire.data(), wire.size()));
      if (!parsed || !vm::validate(*parsed)) return 2;
      auto instance = vm::Instance::create(std::move(*parsed), {});
      if (!instance) return 2;
      const auto t1 = std::chrono::steady_clock::now();
      runs.push_back(std::chrono::duration<double, std::micro>(t1 - t0)
                         .count());
    }
    std::sort(runs.begin(), runs.end());
    const double median = runs[runs.size() / 2];
    setup_us.push_back(median);
    std::printf("%12zu %12.1f %14.1f\n", wire.size(), median, 10.0);
  }
  // The paper reports ~10 ms "almost constant setup time across all
  // executions": on their stack the fixed Wasmer environment cost
  // dominates any size dependence. Our check: across the realistic
  // Debuglet size range, setup stays well inside that 10 ms budget, so the
  // modeled constant the executor charges is an upper bound.
  checks.check(setup_us.back() < 10'000.0,
               "setup stays within the paper's ~10 ms budget across sizes");
  checks.check(setup_us.front() < 1'000.0,
               "typical Debuglet (~1 kB) instantiates in well under 1 ms");

  // --- (1) + (2): chain critical path and end-to-end ----------------------
  core::DebugletSystem system(simnet::build_chain_scenario(4, 2026, 5.0));
  core::Initiator initiator(system, 7, 500'000'000'000ULL);

  const SimTime requested_at = system.queue().now();
  auto handle = initiator.purchase_rtt_measurement({1, 2}, {4, 1},
                                                   net::Protocol::kUdp, 5,
                                                   100);
  if (!handle) {
    std::printf("purchase failed: %s\n", handle.error_message().c_str());
    return 2;
  }
  auto outcome = initiator.await_result(*handle);
  if (!outcome) {
    std::printf("collect failed: %s\n", outcome.error_message().c_str());
    return 2;
  }

  const SimDuration finality = chain::kFinalityLatency;
  const SimTime first_packet = outcome->client.record.actual_start;
  std::printf("\nCritical path (simulated):\n");
  std::printf("  chain transactions on critical path : 2 (LookupSlot, "
              "PurchaseSlot)\n");
  std::printf("  per-transaction finality            : %s\n",
              format_duration(finality).c_str());
  std::printf("  slot window opened                  : %s\n",
              format_time(handle->window_start).c_str());
  std::printf("  sandbox ready (first packet)        : %s\n",
              format_time(first_packet).c_str());
  std::printf("  request -> first measurement packet : %s\n",
              format_duration(first_packet - requested_at).c_str());
  const SimDuration setup =
      first_packet - outcome->client.record.scheduled_start;
  std::printf("  environment setup (modeled)         : %s\n",
              format_duration(setup).c_str());

  checks.check(first_packet - requested_at < duration::seconds(1),
               "sub-second reaction to an experienced fault (paper claim)");
  checks.check(setup >= duration::milliseconds(9) &&
                   setup <= duration::milliseconds(12),
               "environment setup ~10 ms (paper Section V-B)");
  checks.check(2 * finality < duration::seconds(1),
               "two chain transactions stay sub-second");
  return checks.summary();
}
