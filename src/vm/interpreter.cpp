// Instance plumbing, the Execution lifecycle, and the interpreter loop.
//
// Execution::step decodes each instruction in the loop and charges one
// fuel unit before executing it; every trap records the function index
// and pc of the trapping instruction. Instance::create checks the indices
// the loop uses unchecked, so nothing here trusts a module it did not
// check.
#include <limits>

#include "vm/interpreter.hpp"

namespace debuglet::vm {

std::string trap_name(TrapKind kind) {
  switch (kind) {
    case TrapKind::kNone: return "none";
    case TrapKind::kOutOfFuel: return "out-of-fuel";
    case TrapKind::kMemoryOutOfBounds: return "memory-out-of-bounds";
    case TrapKind::kStackOverflow: return "stack-overflow";
    case TrapKind::kStackUnderflow: return "stack-underflow";
    case TrapKind::kDivideByZero: return "divide-by-zero";
    case TrapKind::kIntegerOverflow: return "integer-overflow";
    case TrapKind::kAbort: return "abort";
    case TrapKind::kHostError: return "host-error";
    case TrapKind::kCallDepthExceeded: return "call-depth-exceeded";
  }
  return "unknown";
}

namespace {

// The structural facts the interpreter relies on: every local, global,
// jump-target, function and host-import index is in range. vm::validate()
// established them already for any module an executor runs; re-checking
// here keeps Instance::create safe for callers that skipped validation.
Status check_function(const Module& m, const Function& f) {
  const auto code_len = static_cast<std::int64_t>(f.code.size());
  const auto local_total =
      static_cast<std::int64_t>(f.param_count) + f.local_count;
  for (std::size_t pc = 0; pc < f.code.size(); ++pc) {
    const Instruction& ins = f.code[pc];
    const std::string at = "instantiate: function '" + f.name + "' pc " +
                           std::to_string(pc) + " (" + opcode_name(ins.op) +
                           "): ";
    switch (ins.op) {
      case Opcode::kLocalGet:
      case Opcode::kLocalSet:
        if (ins.imm < 0 || ins.imm >= local_total)
          return fail(at + "local index out of range");
        break;
      case Opcode::kGlobalGet:
      case Opcode::kGlobalSet:
        if (ins.imm < 0 ||
            ins.imm >= static_cast<std::int64_t>(m.globals.size()))
          return fail(at + "global index out of range");
        break;
      case Opcode::kJump:
      case Opcode::kJumpIf:
      case Opcode::kJumpIfZ:
        if (ins.imm < 0 || ins.imm >= code_len)
          return fail(at + "jump target out of range");
        break;
      case Opcode::kCall:
        if (ins.imm < 0 ||
            ins.imm >= static_cast<std::int64_t>(m.functions.size()))
          return fail(at + "function index out of range");
        break;
      case Opcode::kCallHost:
        if (ins.imm < 0 ||
            ins.imm >= static_cast<std::int64_t>(m.host_imports.size()))
          return fail(at + "host import index out of range");
        break;
      default:
        break;
    }
  }
  return ok_status();
}

}  // namespace

Instance::Instance(Module module, std::vector<HostFunction> bound,
                   ExecutionLimits limits)
    : module_(std::move(module)),
      imports_(std::move(bound)),
      limits_(limits),
      memory_(module_.memory_size, 0),
      globals_(module_.globals) {}

Result<Instance> Instance::create(Module module,
                                  std::vector<HostFunction> host_functions,
                                  ExecutionLimits limits) {
  std::map<std::string, const HostFunction*> by_name;
  for (const HostFunction& hf : host_functions) {
    if (!by_name.emplace(hf.name, &hf).second)
      return fail("duplicate host function '" + hf.name + "'");
  }
  std::vector<HostFunction> bound;
  bound.reserve(module.host_imports.size());
  for (const std::string& import : module.host_imports) {
    auto it = by_name.find(import);
    if (it == by_name.end())
      return fail("unresolved host import '" + import + "'");
    bound.push_back(*it->second);
  }
  for (const Function& f : module.functions)
    if (auto s = check_function(module, f); !s) return s.error();
  return Instance(std::move(module), std::move(bound), limits);
}

RunOutcome Instance::run() {
  return run_function(kEntryPointName, {});
}

RunOutcome Instance::run_function(std::string_view name,
                                  std::span<const std::int64_t> args) {
  auto exec = Execution::start(*this, name, args);
  if (!exec) {
    RunOutcome out;
    out.trapped = true;
    out.trap = TrapKind::kAbort;
    out.trap_message = exec.error_message();
    return out;
  }
  Execution e = std::move(*exec);
  if (e.step() == Execution::State::kBlocked)
    e.fail("async host call '" + e.block().import_name +
           "' in synchronous run");
  return e.outcome();
}

Result<Bytes> Instance::read_memory(std::uint64_t offset,
                                    std::uint64_t length) const {
  if (offset + length > memory_.size() || offset + length < offset)
    return fail("memory read out of bounds");
  return Bytes(memory_.begin() + static_cast<std::ptrdiff_t>(offset),
               memory_.begin() + static_cast<std::ptrdiff_t>(offset + length));
}

Status Instance::write_memory(std::uint64_t offset, BytesView data) {
  if (offset + data.size() > memory_.size() || offset + data.size() < offset)
    return fail("memory write out of bounds");
  std::copy(data.begin(), data.end(),
            memory_.begin() + static_cast<std::ptrdiff_t>(offset));
  return ok_status();
}

Result<BufferDecl> Instance::buffer(std::string_view name) const {
  const int idx = module_.buffer_index(name);
  if (idx < 0) return fail("no buffer named '" + std::string(name) + "'");
  return module_.buffers[static_cast<std::size_t>(idx)];
}

Result<Bytes> Instance::read_buffer(std::string_view name) const {
  auto decl = buffer(name);
  if (!decl) return decl.error();
  return read_memory(decl->offset, decl->size);
}

Status Instance::write_buffer(std::string_view name, BytesView data) {
  auto decl = buffer(name);
  if (!decl) return decl.error();
  if (data.size() > decl->size)
    return fail("data exceeds buffer '" + std::string(name) + "' size");
  return write_memory(decl->offset, data);
}

Execution::Execution(Instance& instance) : instance_(&instance) {
  fuel_ = instance.limits_.fuel;
  stack_.reserve(256);
}

Result<Execution> Execution::start(Instance& instance,
                                   std::string_view function_name,
                                   std::span<const std::int64_t> args) {
  const int index = instance.module().function_index(function_name);
  if (index < 0)
    return ::debuglet::fail("no function '" + std::string(function_name) +
                            "'");
  const Function& f =
      instance.module().functions[static_cast<std::size_t>(index)];
  if (args.size() != f.param_count)
    return ::debuglet::fail("argument count mismatch calling '" +
                            std::string(function_name) + "'");
  Execution e(instance);
  e.push_frame(static_cast<std::uint32_t>(index), args);
  return e;
}

Result<Execution> Execution::start_entry(Instance& instance) {
  return start(instance, kEntryPointName, {});
}

void Execution::push_frame(std::uint32_t function_index,
                           std::span<const std::int64_t> args) {
  const Function& f = instance_->module_.functions[function_index];
  Frame frame;
  frame.function = function_index;
  frame.pc = 0;
  frame.locals_base = static_cast<std::uint32_t>(locals_.size());
  locals_.insert(locals_.end(), args.begin(), args.end());
  locals_.resize(locals_.size() + f.local_count, 0);
  frames_.push_back(frame);
}

void Execution::finish_value(std::int64_t value) {
  outcome_ = RunOutcome{};
  outcome_.value = value;
  outcome_.fuel_used = fuel_used();
  outcome_.host_calls = host_calls_;
  state_ = State::kDone;
}

void Execution::finish_trap(TrapKind kind, std::string message,
                            std::uint32_t function, std::uint32_t pc) {
  outcome_ = RunOutcome{};
  outcome_.trapped = true;
  outcome_.trap = kind;
  outcome_.trap_message = std::move(message);
  outcome_.fuel_used = fuel_used();
  outcome_.host_calls = host_calls_;
  outcome_.trap_function = function;
  outcome_.trap_pc = pc;
  state_ = State::kDone;
}

void Execution::resume(std::int64_t value) {
  if (state_ != State::kBlocked)
    throw std::logic_error("Execution::resume: not blocked");
  if (stack_.size() >= instance_->limits_.max_value_stack) {
    finish_trap(TrapKind::kStackOverflow, "overflow resuming host call",
                block_src_function_, block_src_pc_);
    return;
  }
  stack_.push_back(value);
  state_ = State::kReady;
}

void Execution::fail(std::string message) {
  if (state_ == State::kDone) return;
  finish_trap(TrapKind::kHostError, std::move(message), block_src_function_,
              block_src_pc_);
}

Execution::State Execution::step() {
  if (state_ == State::kDone || state_ == State::kBlocked) return state_;
  state_ = State::kRunning;
  const ExecutionLimits& limits = instance_->limits_;
  const Module& module = instance_->module_;

  while (state_ == State::kRunning) {
    if (frames_.empty()) {
      finish_trap(TrapKind::kAbort, "no active frame", 0, 0);
      break;
    }
    Frame& frame = frames_.back();
    const Function& f = module.functions[frame.function];
    const std::uint32_t at_func = frame.function;
    const std::uint32_t at_pc = frame.pc;
    if (frame.pc >= f.code.size()) {
      finish_trap(TrapKind::kAbort, "fell off function body", at_func, at_pc);
      break;
    }
    const Instruction ins = f.code[frame.pc];

    if (fuel_ == 0) {
      finish_trap(TrapKind::kOutOfFuel, "fuel exhausted in '" + f.name + "'",
                  at_func, at_pc);
      break;
    }
    --fuel_;

    auto pop = [&](std::int64_t& out) {
      if (stack_.empty()) return false;
      out = stack_.back();
      stack_.pop_back();
      return true;
    };
    auto push = [&](std::int64_t v) {
      if (stack_.size() >= limits.max_value_stack) return false;
      stack_.push_back(v);
      return true;
    };
    const auto underflow = [&] {
      finish_trap(TrapKind::kStackUnderflow,
                  "stack underflow at " + opcode_name(ins.op), at_func, at_pc);
    };
    const auto overflow = [&] {
      finish_trap(TrapKind::kStackOverflow,
                  "value stack overflow at " + opcode_name(ins.op), at_func,
                  at_pc);
    };

    ++frame.pc;
    switch (ins.op) {
      case Opcode::kNop:
        break;
      case Opcode::kConst:
        if (!push(ins.imm)) overflow();
        break;
      case Opcode::kDrop: {
        std::int64_t v;
        if (!pop(v)) underflow();
        break;
      }
      case Opcode::kDup: {
        if (stack_.empty()) {
          underflow();
          break;
        }
        if (!push(stack_.back())) overflow();
        break;
      }
      case Opcode::kLocalGet:
        if (!push(locals_[frame.locals_base +
                          static_cast<std::uint32_t>(ins.imm)]))
          overflow();
        break;
      case Opcode::kLocalSet: {
        std::int64_t v;
        if (!pop(v)) {
          underflow();
          break;
        }
        locals_[frame.locals_base + static_cast<std::uint32_t>(ins.imm)] = v;
        break;
      }
      case Opcode::kGlobalGet:
        if (!push(instance_->globals_[static_cast<std::size_t>(ins.imm)]))
          overflow();
        break;
      case Opcode::kGlobalSet: {
        std::int64_t v;
        if (!pop(v)) {
          underflow();
          break;
        }
        instance_->globals_[static_cast<std::size_t>(ins.imm)] = v;
        break;
      }

      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDivS:
      case Opcode::kRemS:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kShrS:
      case Opcode::kShrU:
      case Opcode::kEq:
      case Opcode::kNe:
      case Opcode::kLtS:
      case Opcode::kGtS:
      case Opcode::kLeS:
      case Opcode::kGeS: {
        std::int64_t b, a;
        if (!pop(b) || !pop(a)) {
          underflow();
          break;
        }
        std::int64_t r = 0;
        const auto ua = static_cast<std::uint64_t>(a);
        const auto ub = static_cast<std::uint64_t>(b);
        bool trapped = false;
        switch (ins.op) {
          case Opcode::kAdd: r = static_cast<std::int64_t>(ua + ub); break;
          case Opcode::kSub: r = static_cast<std::int64_t>(ua - ub); break;
          case Opcode::kMul: r = static_cast<std::int64_t>(ua * ub); break;
          case Opcode::kDivS:
            if (b == 0) {
              finish_trap(TrapKind::kDivideByZero, "div_s by zero", at_func,
                          at_pc);
              trapped = true;
            } else if (a == std::numeric_limits<std::int64_t>::min() &&
                       b == -1) {
              finish_trap(TrapKind::kIntegerOverflow, "div_s overflow",
                          at_func, at_pc);
              trapped = true;
            } else {
              r = a / b;
            }
            break;
          case Opcode::kRemS:
            if (b == 0) {
              finish_trap(TrapKind::kDivideByZero, "rem_s by zero", at_func,
                          at_pc);
              trapped = true;
            } else if (a == std::numeric_limits<std::int64_t>::min() &&
                       b == -1) {
              r = 0;
            } else {
              r = a % b;
            }
            break;
          case Opcode::kAnd: r = a & b; break;
          case Opcode::kOr: r = a | b; break;
          case Opcode::kXor: r = a ^ b; break;
          case Opcode::kShl:
            r = static_cast<std::int64_t>(ua << (ub & 63));
            break;
          case Opcode::kShrS: r = a >> (ub & 63); break;
          case Opcode::kShrU:
            r = static_cast<std::int64_t>(ua >> (ub & 63));
            break;
          case Opcode::kEq: r = a == b; break;
          case Opcode::kNe: r = a != b; break;
          case Opcode::kLtS: r = a < b; break;
          case Opcode::kGtS: r = a > b; break;
          case Opcode::kLeS: r = a <= b; break;
          case Opcode::kGeS: r = a >= b; break;
          default: break;
        }
        if (!trapped && !push(r)) overflow();
        break;
      }
      case Opcode::kEqz: {
        std::int64_t a;
        if (!pop(a)) {
          underflow();
          break;
        }
        if (!push(a == 0 ? 1 : 0)) overflow();
        break;
      }

      case Opcode::kLoad8:
      case Opcode::kLoad32:
      case Opcode::kLoad64: {
        std::int64_t addr;
        if (!pop(addr)) {
          underflow();
          break;
        }
        const std::uint64_t width =
            ins.op == Opcode::kLoad8 ? 1 : ins.op == Opcode::kLoad32 ? 4 : 8;
        const std::uint64_t base = static_cast<std::uint64_t>(addr) +
                                   static_cast<std::uint64_t>(ins.imm);
        if (addr < 0 || base + width > instance_->memory_.size() ||
            base + width < base) {
          finish_trap(TrapKind::kMemoryOutOfBounds,
                      "load at " + std::to_string(base), at_func, at_pc);
          break;
        }
        std::uint64_t v = 0;
        for (std::uint64_t i = 0; i < width; ++i)
          v |= static_cast<std::uint64_t>(instance_->memory_[base + i])
               << (i * 8);
        if (!push(static_cast<std::int64_t>(v))) overflow();
        break;
      }
      case Opcode::kStore8:
      case Opcode::kStore32:
      case Opcode::kStore64: {
        std::int64_t value, addr;
        if (!pop(value) || !pop(addr)) {
          underflow();
          break;
        }
        const std::uint64_t width =
            ins.op == Opcode::kStore8 ? 1 : ins.op == Opcode::kStore32 ? 4 : 8;
        const std::uint64_t base = static_cast<std::uint64_t>(addr) +
                                   static_cast<std::uint64_t>(ins.imm);
        if (addr < 0 || base + width > instance_->memory_.size() ||
            base + width < base) {
          finish_trap(TrapKind::kMemoryOutOfBounds,
                      "store at " + std::to_string(base), at_func, at_pc);
          break;
        }
        for (std::uint64_t i = 0; i < width; ++i)
          instance_->memory_[base + i] = static_cast<std::uint8_t>(
              static_cast<std::uint64_t>(value) >> (i * 8));
        break;
      }
      case Opcode::kMemSize:
        if (!push(static_cast<std::int64_t>(instance_->memory_.size())))
          overflow();
        break;

      case Opcode::kJump:
        frame.pc = static_cast<std::uint32_t>(ins.imm);
        break;
      case Opcode::kJumpIf: {
        std::int64_t cond;
        if (!pop(cond)) {
          underflow();
          break;
        }
        if (cond != 0) frame.pc = static_cast<std::uint32_t>(ins.imm);
        break;
      }
      case Opcode::kJumpIfZ: {
        std::int64_t cond;
        if (!pop(cond)) {
          underflow();
          break;
        }
        if (cond == 0) frame.pc = static_cast<std::uint32_t>(ins.imm);
        break;
      }
      case Opcode::kCall: {
        if (frames_.size() >= limits.max_call_depth) {
          finish_trap(TrapKind::kCallDepthExceeded, "call depth limit",
                      at_func, at_pc);
          break;
        }
        const auto callee = static_cast<std::uint32_t>(ins.imm);
        const Function& target = module.functions[callee];
        if (stack_.size() < target.param_count) {
          underflow();
          break;
        }
        std::vector<std::int64_t> call_args(stack_.end() - target.param_count,
                                            stack_.end());
        stack_.resize(stack_.size() - target.param_count);
        push_frame(callee, call_args);
        break;
      }
      case Opcode::kCallHost: {
        const HostFunction& hf =
            instance_->imports_[static_cast<std::size_t>(ins.imm)];
        if (stack_.size() < hf.arity) {
          underflow();
          break;
        }
        std::vector<std::int64_t> call_args(stack_.end() - hf.arity,
                                            stack_.end());
        stack_.resize(stack_.size() - hf.arity);
        if (fuel_ < kHostCallFuelCost) {
          finish_trap(TrapKind::kOutOfFuel, "fuel exhausted on host call",
                      at_func, at_pc);
          break;
        }
        fuel_ -= kHostCallFuelCost;
        ++host_calls_;
        if (hf.async) {
          block_ = BlockInfo{static_cast<std::uint32_t>(ins.imm), hf.name,
                             std::move(call_args)};
          block_src_function_ = at_func;
          block_src_pc_ = at_pc;
          state_ = State::kBlocked;
          break;
        }
        auto result = hf.fn(*instance_, call_args);
        if (!result) {
          finish_trap(TrapKind::kHostError,
                      hf.name + ": " + result.error_message(), at_func, at_pc);
          break;
        }
        if (!push(*result)) overflow();
        break;
      }
      case Opcode::kReturn: {
        std::int64_t value;
        if (!pop(value)) {
          underflow();
          break;
        }
        locals_.resize(frames_.back().locals_base);
        frames_.pop_back();
        if (frames_.empty()) {
          finish_value(value);
          break;
        }
        if (!push(value)) overflow();
        break;
      }
      case Opcode::kAbort:
        finish_trap(TrapKind::kAbort,
                    "abort(" + std::to_string(ins.imm) + ") in '" + f.name +
                        "'",
                    at_func, at_pc);
        break;
    }
  }
  return state_;
}

}  // namespace debuglet::vm
