// Per-hop DVM snippets — "millions of little minions" for the simulator.
//
// A hop program is a validated DVM mini-module installed on the network
// (the every-router Debuglet deployment of paper §VI-G). Probes whose INT
// header sets the hop-program flag get the program run ONCE PER TRAVERSED
// DEVICE against a four-slot hop-register file carried in the header
// (TPP-style): the entry point receives that hop's observations as
// arguments, reads and writes the carried registers through DVM globals
// 0..3, and its return value can raise an in-band alarm.
//
// ABI (see docs/TELEMETRY.md):
//   run_debuglet(asn, hop_latency_ns, queue_depth, wire_faults) -> i64
//     globals[0..3]  = carried hop registers (loaded before, stored after)
//     return 0       = continue quietly
//     return != 0    = raise the alarm flag, recording this hop
//
// Execution is strictly fuel-capped per hop: every run is a fresh
// Execution with HopProgramLimits::fuel_per_hop fuel, reusing the
// validator and the interpreter the executor path already trusts. A
// trap (out of fuel, memory fault, abort) latches the fell-back flag on
// the packet and plain INT continues — telemetry never takes the packet
// down with it.
#pragma once

#include <memory>
#include <vector>

#include "telemetry/int_header.hpp"
#include "util/result.hpp"
#include "vm/interpreter.hpp"

namespace debuglet::telemetry {

/// Per-hop execution budget. Deliberately tiny next to the executor's
/// default 10M: a hop program runs on the forwarding path of every device.
struct HopProgramLimits {
  std::uint64_t fuel_per_hop = 4096;
  std::uint32_t max_memory = 4096;       // bytes of linear memory
  std::uint32_t max_code_length = 512;   // instructions per function
};

/// The outcome of running the installed program for one hop.
struct HopRunResult {
  bool ran = false;      // false = no program installed / not requested
  bool trapped = false;  // program died; INT falls back to plain records
  bool alarmed = false;  // program returned non-zero
  std::uint64_t fuel_used = 0;
};

/// A validated, instantiated hop program shared by every device of one
/// simulated network. Validation and instantiation happen at install;
/// each hop pays only a fresh fuel-capped Execution.
class HopProgramRuntime {
 public:
  /// Validates and instantiates `module`. Rejects modules with host
  /// imports (hop programs get no ambient authority at all), with fewer
  /// globals than the register file, or whose entry point does not take
  /// exactly the four ABI arguments.
  static Result<std::unique_ptr<HopProgramRuntime>> create(
      vm::Module module, HopProgramLimits limits = {});

  /// Runs the program for one hop, as if on a fresh per-device instance:
  /// globals reset to the module's initial values, then (after the first
  /// hop) globals 0..3 are overlaid with `header`'s carried registers —
  /// the ONLY state that travels between devices. Executes
  /// run_debuglet(asn, hop_latency_ns, queue_depth, wire_faults) under
  /// the per-hop fuel cap, stores globals 0..3 back into the header, and
  /// raises the header's alarm on a non-zero return. On a trap the
  /// header's registers are left as they were before the hop and the
  /// fell-back flag latches.
  HopRunResult run_hop(IntHeader& header, std::uint8_t hop_index,
                       const HopRecord& record, std::int64_t hop_latency_ns);

  const HopProgramLimits& limits() const { return limits_; }

 private:
  HopProgramRuntime(vm::Instance instance, HopProgramLimits limits,
                    std::vector<std::int64_t> initial_globals)
      : instance_(std::move(instance)),
        limits_(limits),
        initial_globals_(std::move(initial_globals)) {}

  vm::Instance instance_;
  HopProgramLimits limits_;
  /// The module's declared global values — restored before every hop so
  /// the shared simulator instance behaves like a fresh instance per
  /// device (program constants such as a watchdog threshold survive).
  std::vector<std::int64_t> initial_globals_;
};

/// A canned hop program: tracks the maximum hop latency in register 0 and
/// the hops executed in register 1, and raises the alarm when a hop's
/// latency exceeds `threshold_ns` (register 2 holds the threshold,
/// register 3 counts threshold crossings). The watchdog the CLI and the
/// tests deploy.
vm::Module make_latency_watchdog(std::int64_t threshold_ns);

/// A deliberately broken hop program: spins until the per-hop fuel cap
/// traps it. Exercises the trap -> plain-INT fallback path.
vm::Module make_fuel_burner();

}  // namespace debuglet::telemetry
