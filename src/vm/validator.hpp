// Static validation of DVM modules.
//
// Executors validate every received Debuglet before instantiation (the
// paper's executors must "allow the safe execution of unverified code from
// other ASes", §IV-B). Validation guarantees that a passing module can trap
// at runtime only through well-defined checks (bounds, fuel, div-by-zero,
// explicit abort) — never through wild jumps, unknown opcodes, or
// out-of-range local/global/function/import indices.
#pragma once

#include "util/result.hpp"
#include "vm/module.hpp"

namespace debuglet::vm {

/// Structural limits a host imposes on modules it will run.
struct ValidationLimits {
  std::uint32_t max_memory = 1 << 20;       // bytes
  std::uint32_t max_functions = 1024;
  std::uint32_t max_code_length = 1 << 16;  // instructions per function
  std::uint32_t max_locals = 256;           // params + locals per function
  std::uint32_t max_globals = 256;
};

/// Checks a module against the limits and internal consistency rules:
///  - memory size within limits; buffers lie inside memory, names unique;
///  - function names unique and non-empty; a parameterless entry point
///    exists;
///  - every jump target is an in-function instruction index;
///  - every local/global/function/import index in code is in range;
///  - every immediate-carrying opcode has a sensible immediate
///    (non-negative indices, offsets within memory).
Status validate(const Module& module,
                const ValidationLimits& limits = ValidationLimits{});

}  // namespace debuglet::vm
