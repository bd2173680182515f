#include "vm/validator.hpp"

#include <set>

namespace debuglet::vm {

namespace {

Status validate_function(const Module& m, const Function& f,
                         const ValidationLimits& limits) {
  const std::string where = "function '" + f.name + "': ";
  if (f.name.empty()) return fail("function with empty name");
  if (f.param_count + f.local_count > limits.max_locals)
    return fail(where + "too many locals");
  if (f.code.size() > limits.max_code_length)
    return fail(where + "code too long");
  if (f.code.empty()) return fail(where + "empty body");

  const auto code_len = static_cast<std::int64_t>(f.code.size());
  const auto local_total =
      static_cast<std::int64_t>(f.param_count) + f.local_count;
  for (std::size_t pc = 0; pc < f.code.size(); ++pc) {
    const Instruction& ins = f.code[pc];
    const std::string at = where + "pc " + std::to_string(pc) + " (" +
                           opcode_name(ins.op) + "): ";
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
      case Opcode::kLoad8:
      case Opcode::kLoad32:
      case Opcode::kLoad64:
      case Opcode::kStore8:
      case Opcode::kStore32:
      case Opcode::kStore64:
        if (ins.imm < 0 ||
            ins.imm >= static_cast<std::int64_t>(m.memory_size))
          return fail(at + "static memory offset out of range");
        break;
      default:
        break;
    }
  }
  // The final instruction must be an unconditional exit so execution cannot
  // fall off the end of the body.
  const Opcode last = f.code.back().op;
  if (last != Opcode::kReturn && last != Opcode::kJump &&
      last != Opcode::kAbort)
    return fail(where + "body must end in return, jump, or abort");
  return ok_status();
}

}  // namespace

Status validate(const Module& m, const ValidationLimits& limits) {
  if (m.memory_size > limits.max_memory)
    return fail("memory size " + std::to_string(m.memory_size) +
                " exceeds limit " + std::to_string(limits.max_memory));
  if (m.functions.size() > limits.max_functions)
    return fail("too many functions");
  if (m.globals.size() > limits.max_globals) return fail("too many globals");

  std::set<std::string> buffer_names;
  for (const BufferDecl& b : m.buffers) {
    if (b.name.empty()) return fail("buffer with empty name");
    if (!buffer_names.insert(b.name).second)
      return fail("duplicate buffer name '" + b.name + "'");
    const std::uint64_t end =
        static_cast<std::uint64_t>(b.offset) + b.size;
    if (end > m.memory_size)
      return fail("buffer '" + b.name + "' exceeds memory bounds");
  }

  std::set<std::string> function_names;
  for (const Function& f : m.functions) {
    if (!function_names.insert(f.name).second)
      return fail("duplicate function name '" + f.name + "'");
    if (auto s = validate_function(m, f, limits); !s) return s;
  }

  const int entry = m.function_index(kEntryPointName);
  if (entry < 0)
    return fail(std::string("module does not export '") + kEntryPointName +
                "'");
  if (m.functions[static_cast<std::size_t>(entry)].param_count != 0)
    return fail(std::string(kEntryPointName) +
                " must take exactly 0 parameters");

  std::set<std::string> import_names;
  for (const std::string& name : m.host_imports) {
    if (name.empty()) return fail("host import with empty name");
    if (!import_names.insert(name).second)
      return fail("duplicate host import '" + name + "'");
  }
  return ok_status();
}

}  // namespace debuglet::vm
