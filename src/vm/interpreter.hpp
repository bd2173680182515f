// The DVM interpreter.
//
// Instance is one sandboxed environment: fixed linear memory, globals, and
// a host-function table bound by name at instantiation. Host functions are
// the ONLY channel to the outside world.
//
// Execution is a resumable run of one function. Synchronous host functions
// (clock reads, buffer ops, packet sends) execute inline; asynchronous
// ones (receive-with-timeout, sleep) suspend the Execution and hand
// control back to the embedder — the Debuglet executor — which resumes it
// when the awaited simulated event occurs. This is how a strictly
// deterministic event-driven simulator hosts code written in a blocking
// style, mirroring how Wasmer host calls block on real sockets.
//
// Execution::step is a decode-in-the-loop switch interpreter: one fuel
// unit per instruction, every stack and memory access checked. A Debuglet
// is short and bounded, so this simplest loop is the only engine;
// docs/DVM.md records the measurements behind that.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "vm/module.hpp"

namespace debuglet::vm {

class Instance;

/// A host function. If `async` is false, `fn` runs inline and its value is
/// pushed. If `async` is true, the call suspends the Execution; the
/// embedder inspects Execution::block() and later resume()s with a value.
struct HostFunction {
  std::string name;
  std::uint32_t arity = 0;
  std::function<Result<std::int64_t>(Instance&,
                                     std::span<const std::int64_t>)>
      fn;
  bool async = false;
};

/// Fuel charged per host call (every other instruction costs 1).
inline constexpr std::uint64_t kHostCallFuelCost = 32;

/// Execution limits for one run.
struct ExecutionLimits {
  std::uint64_t fuel = 10'000'000;      // instruction budget
  std::uint32_t max_value_stack = 4096;
  std::uint32_t max_call_depth = 256;
};

/// Why a run ended.
enum class TrapKind {
  kNone,
  kOutOfFuel,
  kMemoryOutOfBounds,
  kStackOverflow,
  kStackUnderflow,
  kDivideByZero,
  kIntegerOverflow,
  kAbort,
  kHostError,
  kCallDepthExceeded,
};

std::string trap_name(TrapKind kind);

/// The outcome of a finished run: a return value or a trap.
struct RunOutcome {
  bool trapped = false;
  TrapKind trap = TrapKind::kNone;
  std::string trap_message;
  std::int64_t value = 0;  // return value when !trapped
  std::uint64_t fuel_used = 0;
  std::uint64_t host_calls = 0;
  std::uint32_t trap_function = 0;  // function index of the trap site
  std::uint32_t trap_pc = 0;        // source pc of the trapping instruction

  bool ok() const { return !trapped; }
};

/// One instantiated module.
class Instance {
 public:
  /// Binds the module against the provided host functions. Fails on
  /// unresolved imports, duplicate host-function names, or a local,
  /// global, jump, call or host-import index out of range: the
  /// interpreter indexes those unchecked, so a module that skipped
  /// validate() is rejected here instead of misbehaving.
  static Result<Instance> create(Module module,
                                 std::vector<HostFunction> host_functions,
                                 ExecutionLimits limits = ExecutionLimits{});

  /// Runs the entry point (run_debuglet) to completion. An async host call
  /// traps in this mode; use Execution directly for suspendable runs.
  RunOutcome run();

  /// Runs an arbitrary exported function to completion (same restriction).
  RunOutcome run_function(std::string_view name,
                          std::span<const std::int64_t> args);

  // --- Host-facing API ------------------------------------------------

  /// Bounds-checked memory read.
  Result<Bytes> read_memory(std::uint64_t offset, std::uint64_t length) const;
  /// Bounds-checked memory write.
  Status write_memory(std::uint64_t offset, BytesView data);
  /// Locates a named buffer declared by the module.
  Result<BufferDecl> buffer(std::string_view name) const;
  /// Reads the full contents of a named buffer.
  Result<Bytes> read_buffer(std::string_view name) const;
  /// Writes into a named buffer (must fit).
  Status write_buffer(std::string_view name, BytesView data);

  const Module& module() const { return module_; }
  const ExecutionLimits& limits() const { return limits_; }
  std::span<const std::int64_t> globals() const { return globals_; }
  std::uint32_t memory_size() const {
    return static_cast<std::uint32_t>(memory_.size());
  }

 private:
  friend class Execution;
  Instance(Module module, std::vector<HostFunction> bound,
           ExecutionLimits limits);

  Module module_;
  std::vector<HostFunction> imports_;  // index-aligned with module imports
  ExecutionLimits limits_;
  std::vector<std::uint8_t> memory_;
  std::vector<std::int64_t> globals_;
};

/// A resumable run of one function within an Instance.
class Execution {
 public:
  enum class State { kReady, kRunning, kBlocked, kDone };

  /// Details of the async host call an Execution is blocked on.
  struct BlockInfo {
    std::uint32_t import_index = 0;
    std::string import_name;
    std::vector<std::int64_t> args;
  };

  /// Prepares a run of `function_name` with `args`. Fails if the function
  /// is missing or the argument count mismatches.
  static Result<Execution> start(Instance& instance,
                                 std::string_view function_name,
                                 std::span<const std::int64_t> args);

  /// Prepares a run of the entry point.
  static Result<Execution> start_entry(Instance& instance);

  /// Runs until completion or suspension on an async host call.
  /// Returns the state after stepping (kDone or kBlocked).
  State step();

  /// Unblocks the execution, pushing `value` as the async host call's
  /// result. Does NOT run any code — call step() afterwards to continue.
  /// Precondition: state() == kBlocked.
  void resume(std::int64_t value);

  /// Resumes a blocked execution by trapping it with a host error.
  void fail(std::string message);

  State state() const { return state_; }
  /// Valid when state() == kBlocked.
  const BlockInfo& block() const { return block_; }
  /// Valid when state() == kDone.
  const RunOutcome& outcome() const { return outcome_; }

  Instance& instance() { return *instance_; }

 private:
  explicit Execution(Instance& instance);

  struct Frame {
    std::uint32_t function = 0;
    std::uint32_t pc = 0;  // next instruction to execute
    std::uint32_t locals_base = 0;
  };

  void push_frame(std::uint32_t function_index,
                  std::span<const std::int64_t> args);
  void finish_value(std::int64_t value);
  void finish_trap(TrapKind kind, std::string message, std::uint32_t function,
                   std::uint32_t pc);
  std::uint64_t fuel_used() const { return instance_->limits_.fuel - fuel_; }

  Instance* instance_;
  State state_ = State::kReady;
  RunOutcome outcome_;
  BlockInfo block_;
  std::vector<std::int64_t> stack_;
  std::vector<std::int64_t> locals_;
  std::vector<Frame> frames_;
  std::uint64_t fuel_ = 0;
  std::uint64_t host_calls_ = 0;
  // Position of the call_host an Execution blocked on: resume() and fail()
  // traps report it as their trap site.
  std::uint32_t block_src_pc_ = 0;
  std::uint32_t block_src_function_ = 0;
};

}  // namespace debuglet::vm
