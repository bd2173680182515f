// Opcode coverage audit.
//
// Walks the full Opcode enum (vm::all_opcodes) against a fixed corpus of
// builder programs. Adding an opcode to isa.hpp without exercising it
// here fails the audit, so the semantics tests can never silently lose
// coverage of a new instruction. Every corpus program also runs to a
// pinned outcome.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "vm/builder.hpp"
#include "vm/interpreter.hpp"
#include "vm/validator.hpp"

namespace debuglet {
namespace {

using vm::Opcode;

// One corpus entry: a named module exercising a cluster of opcodes, and
// the outcome its run must render to (see render()).
struct CorpusEntry {
  std::string name;
  vm::Module module;
  std::string outcome;
  bool needs_host = false;
};

std::vector<CorpusEntry> corpus() {
  std::vector<CorpusEntry> out;

  {  // Arithmetic and bitwise ops, plus const/dup/drop plumbing.
    vm::ModuleBuilder mb;
    mb.memory(64);
    auto& fb = mb.function(vm::kEntryPointName, 0, 1);
    fb.constant(1000).constant(7).emit(Opcode::kDivS);
    fb.constant(13).emit(Opcode::kRemS);
    fb.constant(3).emit(Opcode::kMul);
    fb.constant(5).emit(Opcode::kAdd);
    fb.constant(2).emit(Opcode::kSub);
    fb.constant(0xFF).emit(Opcode::kAnd);
    fb.constant(0x10).emit(Opcode::kOr);
    fb.constant(0x3).emit(Opcode::kXor);
    fb.constant(2).emit(Opcode::kShl);
    fb.constant(1).emit(Opcode::kShrS);
    fb.constant(1).emit(Opcode::kShrU);
    fb.emit(Opcode::kDup);
    fb.emit(Opcode::kDrop);
    fb.emit(Opcode::kEqz);
    fb.emit(Opcode::kNop);
    fb.ret();
    out.push_back({"arith", mb.build(), "value=0 fuel=28 host_calls=0"});
  }

  {  // Comparisons, after dup and after two consts.
    vm::ModuleBuilder mb;
    mb.memory(64);
    auto& fb = mb.function(vm::kEntryPointName, 0, 2);
    const auto ops = {Opcode::kEq,  Opcode::kNe,  Opcode::kLtS,
                      Opcode::kGtS, Opcode::kLeS, Opcode::kGeS};
    for (Opcode op : ops) {
      fb.constant(4).emit(Opcode::kDup).emit(op).emit(Opcode::kDrop);
      fb.constant(9).constant(5).emit(op).emit(Opcode::kDrop);
    }
    fb.constant(0).ret();
    out.push_back({"compare", mb.build(), "value=0 fuel=50 host_calls=0"});
  }

  {  // Memory: all load/store widths plus mem.size.
    vm::ModuleBuilder mb;
    mb.memory(128);
    auto& fb = mb.function(vm::kEntryPointName, 0, 0);
    fb.constant(8).constant(0x1122334455667788).emit(Opcode::kStore64, 0);
    fb.constant(8).constant(0xAABBCCDD).emit(Opcode::kStore32, 16);
    fb.constant(8).constant(0x5A).emit(Opcode::kStore8, 24);
    fb.constant(8).emit(Opcode::kLoad64, 0).emit(Opcode::kDrop);
    fb.constant(8).emit(Opcode::kLoad32, 16).emit(Opcode::kDrop);
    fb.constant(8).emit(Opcode::kLoad8, 24);
    fb.emit(Opcode::kMemSize).emit(Opcode::kAdd);
    fb.ret();
    out.push_back({"memory", mb.build(), "value=218 fuel=20 host_calls=0"});
  }

  {  // Locals, globals, and the local/const loop shapes the apps emit.
    vm::ModuleBuilder mb;
    mb.memory(64);
    const auto g = mb.add_global(11);
    auto& fb = mb.function(vm::kEntryPointName, 0, 2);
    const auto top = fb.make_label();
    const auto done = fb.make_label();
    fb.bind(top);
    fb.local_get(0).constant(10).emit(Opcode::kGeS).jump_if(done);
    fb.local_get(1).constant(3).emit(Opcode::kAdd).local_set(1);
    fb.local_get(0).constant(1).emit(Opcode::kAdd).local_set(0);
    fb.jump(top);
    fb.bind(done);
    const auto tail = fb.make_label();
    fb.local_get(0).constant(10).emit(Opcode::kEq).jump_ifz(tail);
    fb.bind(tail);
    fb.global_get(g).local_get(1).emit(Opcode::kAdd);
    fb.global_set(g);
    fb.global_get(g).ret();
    out.push_back({"locals_globals", mb.build(), "value=41 fuel=144 host_calls=0"});
  }

  {  // Control: call, call_host, conditional jumps, return.
    vm::ModuleBuilder mb;
    mb.memory(64);
    auto& helper = mb.function("helper", 2, 0);
    helper.local_get(0).local_get(1).emit(Opcode::kAdd).ret();
    auto& fb = mb.function(vm::kEntryPointName, 0, 1);
    fb.constant(20).constant(22).call("helper");
    fb.call_host("h_probe");
    fb.ret();
    out.push_back({"calls", mb.build(), "value=43 fuel=41 host_calls=1",
                   true});
  }

  {  // Abort: the only trapping corpus entry.
    vm::ModuleBuilder mb;
    mb.memory(64);
    auto& fb = mb.function(vm::kEntryPointName, 0, 0);
    const auto skip = fb.make_label();
    fb.constant(1).jump_ifz(skip);
    fb.emit(Opcode::kAbort, 42);
    fb.bind(skip);
    fb.constant(0).ret();
    out.push_back({"abort", mb.build(),
                   "trap=abort 'abort(42) in 'run_debuglet'' at 0:2 fuel=3 "
                   "host_calls=0"});
  }

  return out;
}

std::vector<vm::HostFunction> corpus_hosts() {
  return {{"h_probe", 1,
           [](vm::Instance&, std::span<const std::int64_t> args)
               -> Result<std::int64_t> { return args[0] + 1; },
           false}};
}

TEST(VmCoverage, EveryOpcodeIsExercisedByTheCorpus) {
  std::set<Opcode> seen;
  for (const CorpusEntry& entry : corpus()) {
    ASSERT_TRUE(vm::validate(entry.module).ok()) << entry.name;
    for (const vm::Function& f : entry.module.functions)
      for (const vm::Instruction& ins : f.code) seen.insert(ins.op);
  }
  for (Opcode op : vm::all_opcodes())
    EXPECT_TRUE(seen.contains(op))
        << "opcode '" << vm::opcode_name(op)
        << "' is not exercised by the coverage corpus; extend "
           "tests/vm_coverage_test.cpp when adding instructions";
}

std::string render(const vm::RunOutcome& o) {
  const std::string tail = " fuel=" + std::to_string(o.fuel_used) +
                           " host_calls=" + std::to_string(o.host_calls);
  if (!o.trapped) return "value=" + std::to_string(o.value) + tail;
  return "trap=" + vm::trap_name(o.trap) + " '" + o.trap_message + "' at " +
         std::to_string(o.trap_function) + ":" + std::to_string(o.trap_pc) +
         tail;
}

TEST(VmCoverage, CorpusRunsToPinnedOutcomes) {
  for (const CorpusEntry& entry : corpus()) {
    auto instance = vm::Instance::create(
        entry.module,
        entry.needs_host ? corpus_hosts() : std::vector<vm::HostFunction>{},
        {});
    ASSERT_TRUE(instance.ok()) << entry.name;
    EXPECT_EQ(render(instance->run()), entry.outcome) << entry.name;
  }
}

}  // namespace
}  // namespace debuglet
