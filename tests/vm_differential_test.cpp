// Pins the DVM's semantics over seeded random modules.
//
// Generates seeded random valid modules through ModuleBuilder (loop,
// branch and arithmetic shapes real Debuglets emit, plus adversarial soup:
// stack abuse, wild addresses, division corner cases, recursion), runs
// each one, and folds every observable of every run into one SHA-256
// digest per sweep: the return value, or the trap kind, message, function
// and pc; fuel_used; the host-call and async-block sequences; the final
// linear memory and globals. The pinned digests were taken when a second,
// decode-once engine still ran beside this interpreter and agreed with it
// on every one of these modules, so a change to any observable of any run
// fails here. Hand-written cases below pin the corners the sweeps could
// plausibly miss as literal outcomes. All seeds are fixed.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "vm/builder.hpp"
#include "vm/interpreter.hpp"
#include "vm/validator.hpp"

namespace debuglet {
namespace {

using vm::Opcode;

// One observed host call: import name + arguments.
using HostCall = std::pair<std::string, std::vector<std::int64_t>>;

// Everything observable about one finished run.
struct Observation {
  vm::RunOutcome outcome;
  Bytes memory;
  std::vector<std::int64_t> globals;
  std::vector<HostCall> host_log;
  // For suspendable runs: the async host calls, in suspension order.
  std::vector<HostCall> block_log;
};

void write_calls(BytesWriter& w, const std::vector<HostCall>& calls) {
  w.varint(calls.size());
  for (const auto& [name, args] : calls) {
    w.str(name);
    w.varint(args.size());
    for (std::int64_t arg : args) w.i64(arg);
  }
}

// Feeds one run's every observable into `digest`, length-prefixed so no
// two different observations serialize alike.
void fold(crypto::Sha256& digest, const Observation& obs) {
  const vm::RunOutcome& o = obs.outcome;
  BytesWriter w;
  w.u8(o.trapped ? 1 : 0);
  if (o.trapped) {
    w.str(vm::trap_name(o.trap));
    w.str(o.trap_message);
    w.u32(o.trap_function);
    w.u32(o.trap_pc);
  } else {
    w.i64(o.value);
  }
  w.u64(o.fuel_used);
  w.u64(o.host_calls);
  write_calls(w, obs.host_log);
  write_calls(w, obs.block_log);
  w.blob(BytesView(obs.memory.data(), obs.memory.size()));
  w.varint(obs.globals.size());
  for (std::int64_t g : obs.globals) w.i64(g);
  const Bytes bytes = w.take();
  digest.update(BytesView(bytes.data(), bytes.size()));
}

// Host functions every generated module may import. Synchronous ones
// record their calls into `log`; h_fail returns an error; h_block is
// async and driven by the suspendable runner.
std::vector<vm::HostFunction> make_hosts(std::vector<HostCall>* log,
                                         bool with_async) {
  std::vector<vm::HostFunction> hosts;
  hosts.push_back({"h_log", 1,
                   [log](vm::Instance&, std::span<const std::int64_t> args)
                       -> Result<std::int64_t> {
                     log->emplace_back(
                         "h_log", std::vector<std::int64_t>(args.begin(),
                                                            args.end()));
                     return static_cast<std::int64_t>(
                         static_cast<std::uint64_t>(args[0]) * 2 + 1);
                   },
                   false});
  hosts.push_back({"h_add2", 2,
                   [log](vm::Instance&, std::span<const std::int64_t> args)
                       -> Result<std::int64_t> {
                     log->emplace_back(
                         "h_add2", std::vector<std::int64_t>(args.begin(),
                                                             args.end()));
                     return static_cast<std::int64_t>(
                         static_cast<std::uint64_t>(args[0]) +
                         static_cast<std::uint64_t>(args[1]));
                   },
                   false});
  hosts.push_back({"h_fail", 0,
                   [log](vm::Instance&, std::span<const std::int64_t>)
                       -> Result<std::int64_t> {
                     log->emplace_back("h_fail",
                                       std::vector<std::int64_t>{});
                     return fail("deliberate host failure");
                   },
                   false});
  if (with_async) {
    hosts.push_back({"h_block", 1, nullptr, true});
    hosts.push_back({"h_block0", 0, nullptr, true});
  }
  return hosts;
}

// --- Random module generation -------------------------------------------

struct GenOptions {
  bool with_async = false;
};

std::int64_t interesting_const(Rng& rng) {
  switch (rng.index(8)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return -1;
    case 3: return std::numeric_limits<std::int64_t>::min();
    case 4: return std::numeric_limits<std::int64_t>::max();
    case 5: return static_cast<std::int64_t>(rng.index(64));
    case 6: return -static_cast<std::int64_t>(rng.index(4096));
    default: return static_cast<std::int64_t>(rng.next_u64());
  }
}

Opcode random_binop(Rng& rng) {
  static const Opcode kOps[] = {
      Opcode::kAdd,  Opcode::kSub,  Opcode::kMul, Opcode::kDivS,
      Opcode::kRemS, Opcode::kAnd,  Opcode::kOr,  Opcode::kXor,
      Opcode::kShl,  Opcode::kShrS, Opcode::kShrU};
  return kOps[rng.index(std::size(kOps))];
}

Opcode random_cmp(Rng& rng) {
  static const Opcode kOps[] = {Opcode::kEq,  Opcode::kNe,  Opcode::kLtS,
                                Opcode::kGtS, Opcode::kLeS, Opcode::kGeS};
  return kOps[rng.index(std::size(kOps))];
}

// Emits one function body as a sequence of fragments biased toward the
// shapes real Debuglets emit (local/const compare-and-branch, counter
// bumps, const and local arithmetic), closed with `const; return`. Stack
// discipline is intentionally not guaranteed.
void random_body(Rng& rng, vm::FunctionBuilder& fb, std::uint32_t n_locals,
                 std::uint32_t n_globals, std::uint32_t memory_size,
                 const std::vector<std::string>& callees,
                 const std::vector<std::pair<std::string, std::uint32_t>>&
                     host_imports) {
  const std::size_t n_fragments = 2 + rng.index(8);
  std::vector<vm::FunctionBuilder::Label> pending;  // forward labels

  const auto rand_local = [&] {
    return static_cast<std::uint32_t>(rng.index(n_locals));
  };

  for (std::size_t frag = 0; frag < n_fragments; ++frag) {
    switch (rng.index(10)) {
      case 0: {  // counter loop: compare-and-branch plus a counter bump
        const std::uint32_t counter = rand_local();
        const std::int64_t bound = static_cast<std::int64_t>(rng.index(24));
        const auto top = fb.make_label();
        const auto done = fb.make_label();
        fb.bind(top);
        fb.local_get(counter)
            .constant(bound)
            .emit(Opcode::kGeS)
            .jump_if(done);
        if (rng.chance(0.5))
          fb.local_get(rand_local())
              .constant(interesting_const(rng))
              .emit(Opcode::kXor)
              .local_set(rand_local());
        fb.local_get(counter).constant(1).emit(Opcode::kAdd).local_set(
            counter);
        fb.jump(top);
        fb.bind(done);
        break;
      }
      case 1: {  // forward compare-and-branch
        fb.local_get(rand_local()).constant(interesting_const(rng));
        fb.emit(random_cmp(rng));
        const auto skip = fb.make_label();
        if (rng.chance(0.5))
          fb.jump_if(skip);
        else
          fb.jump_ifz(skip);
        fb.constant(interesting_const(rng));
        pending.push_back(skip);
        break;
      }
      case 2:  // const-arith pair (incl. div/rem corner divisors)
        fb.constant(interesting_const(rng)).emit(random_binop(rng));
        break;
      case 3:  // local-arith pair
        fb.local_get(rand_local()).emit(random_binop(rng));
        break;
      case 4: {  // memory traffic, sometimes wildly out of bounds
        const bool wild = rng.chance(0.3);
        const std::int64_t addr =
            wild ? interesting_const(rng)
                 : static_cast<std::int64_t>(rng.index(memory_size));
        const std::int64_t off =
            static_cast<std::int64_t>(rng.index(memory_size));
        static const Opcode kStores[] = {Opcode::kStore8, Opcode::kStore32,
                                         Opcode::kStore64};
        static const Opcode kLoads[] = {Opcode::kLoad8, Opcode::kLoad32,
                                        Opcode::kLoad64};
        fb.constant(addr)
            .constant(interesting_const(rng))
            .emit(kStores[rng.index(3)], off);
        fb.constant(addr).emit(kLoads[rng.index(3)], off);
        break;
      }
      case 5: {  // division corner cases on the stack
        fb.constant(interesting_const(rng))
            .constant(rng.chance(0.4) ? (rng.chance(0.5) ? 0 : -1)
                                      : interesting_const(rng))
            .emit(rng.chance(0.5) ? Opcode::kDivS : Opcode::kRemS);
        break;
      }
      case 6: {  // call (any callee; recursion bounded by depth/fuel)
        if (callees.empty()) break;
        const auto& name = callees[rng.index(callees.size())];
        // Push a plausible-but-not-guaranteed number of args.
        const std::size_t pushed = rng.index(4);
        for (std::size_t i = 0; i < pushed; ++i)
          fb.constant(interesting_const(rng));
        fb.call(name);
        break;
      }
      case 7: {  // host call
        if (host_imports.empty()) break;
        const auto& [name, arity] =
            host_imports[rng.index(host_imports.size())];
        for (std::uint32_t i = 0; i < arity; ++i)
          fb.constant(interesting_const(rng));
        fb.call_host(name);
        break;
      }
      case 8: {  // globals round trip
        if (n_globals == 0) break;
        const auto g = static_cast<std::uint32_t>(rng.index(n_globals));
        fb.global_get(g).constant(interesting_const(rng)).emit(Opcode::kAdd);
        fb.global_set(g);
        break;
      }
      default: {  // plain soup
        static const Opcode kSoup[] = {
            Opcode::kNop,  Opcode::kConst, Opcode::kDrop,    Opcode::kDup,
            Opcode::kEqz,  Opcode::kAdd,   Opcode::kMemSize, Opcode::kSub,
            Opcode::kShrU, Opcode::kLtS,   Opcode::kMul};
        const std::size_t len = 1 + rng.index(6);
        for (std::size_t i = 0; i < len; ++i) {
          const Opcode op = kSoup[rng.index(std::size(kSoup))];
          fb.emit(op, op == Opcode::kConst ? interesting_const(rng) : 0);
        }
        break;
      }
    }
  }

  for (auto label : pending) fb.bind(label);
  if (rng.chance(0.1)) {
    fb.emit(Opcode::kAbort, static_cast<std::int64_t>(rng.index(100)));
  } else {
    fb.constant(interesting_const(rng)).ret();
  }
}

vm::Module random_module(Rng& rng, const GenOptions& opts) {
  vm::ModuleBuilder mb;
  const auto memory_size = 64 + static_cast<std::uint32_t>(rng.index(1024));
  mb.memory(memory_size);
  const auto n_globals = static_cast<std::uint32_t>(rng.index(4));
  for (std::uint32_t i = 0; i < n_globals; ++i)
    mb.add_global(interesting_const(rng));

  std::vector<std::pair<std::string, std::uint32_t>> host_imports = {
      {"h_log", 1}, {"h_add2", 2}};
  if (rng.chance(0.15)) host_imports.push_back({"h_fail", 0});
  if (opts.with_async) host_imports.push_back({"h_block", 1});

  const std::size_t n_helpers = rng.index(3);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n_helpers; ++i)
    names.push_back("fn" + std::to_string(i));

  // Entry first: the validator requires a nullary run_debuglet.
  {
    const auto locals = 1 + static_cast<std::uint32_t>(rng.index(3));
    auto& fb = mb.function(vm::kEntryPointName, 0, locals);
    // Random soup usually traps within a few instructions; lead with a
    // guaranteed-reachable async call so the suspendable sweep actually
    // exercises block/resume on most seeds.
    if (opts.with_async && rng.chance(0.7))
      fb.constant(interesting_const(rng))
          .call_host("h_block")
          .local_set(0);
    random_body(rng, fb, locals, n_globals, memory_size, names,
                host_imports);
  }
  for (std::size_t i = 0; i < n_helpers; ++i) {
    const auto params = static_cast<std::uint32_t>(rng.index(3));
    const auto locals = 1 + static_cast<std::uint32_t>(rng.index(2));
    auto& fb = mb.function(names[i], params, locals);
    random_body(rng, fb, params + locals, n_globals, memory_size, names,
                host_imports);
  }
  return mb.build();
}

vm::ExecutionLimits random_limits(Rng& rng) {
  vm::ExecutionLimits limits;
  static const std::uint64_t kFuel[] = {37, 150, 999, 5'000, 20'000};
  static const std::uint32_t kStack[] = {8, 16, 32, 4096};
  static const std::uint32_t kDepth[] = {3, 8, 256};
  limits.fuel = kFuel[rng.index(std::size(kFuel))];
  limits.max_value_stack = kStack[rng.index(std::size(kStack))];
  limits.max_call_depth = kDepth[rng.index(std::size(kDepth))];
  return limits;
}

// --- Runners ------------------------------------------------------------

Observation run_sync(const vm::Module& m, vm::ExecutionLimits limits) {
  Observation obs;
  auto instance =
      vm::Instance::create(m, make_hosts(&obs.host_log, false), limits);
  EXPECT_TRUE(instance.ok()) << instance.error_message();
  obs.outcome = instance->run_function(vm::kEntryPointName, {});
  obs.memory = *instance->read_memory(0, instance->memory_size());
  obs.globals.assign(instance->globals().begin(), instance->globals().end());
  return obs;
}

// Drives a suspendable execution, resuming each async host call with a
// value derived deterministically from its arguments and position.
Observation run_async(const vm::Module& m, vm::ExecutionLimits limits) {
  Observation obs;
  auto instance =
      vm::Instance::create(m, make_hosts(&obs.host_log, true), limits);
  EXPECT_TRUE(instance.ok()) << instance.error_message();
  auto exec = vm::Execution::start(*instance, vm::kEntryPointName, {});
  EXPECT_TRUE(exec.ok()) << exec.error_message();
  std::int64_t tick = 0;
  while (exec->step() == vm::Execution::State::kBlocked) {
    const auto& block = exec->block();
    obs.block_log.emplace_back(block.import_name, block.args);
    const std::uint64_t base =
        block.args.empty() ? 0 : static_cast<std::uint64_t>(block.args[0]);
    exec->resume(
        static_cast<std::int64_t>(base + static_cast<std::uint64_t>(++tick)));
  }
  obs.outcome = exec->outcome();
  obs.memory = *instance->read_memory(0, instance->memory_size());
  obs.globals.assign(instance->globals().begin(), instance->globals().end());
  return obs;
}

// --- The seeded sweeps ---------------------------------------------------

// The sweeps' digests; see the file comment for where they come from.
constexpr const char* kSyncDigest =
    "f521db3630dc50a187dbed6a62c94919e4109c6d0e1f81c66299a063a245a905";
constexpr const char* kSuspendableDigest =
    "74c4b7a020eb633769a3947a67ea1c0fffc52fef770d5ab30c834eadd06aa3de";

TEST(VmDifferential, SyncSeededModulesMatchPinnedDigest) {
  crypto::Sha256 digest;
  int traps = 0, finishes = 0;
  for (std::uint64_t seed = 0; seed < 1200; ++seed) {
    Rng rng(0xD1FF0000 + seed);
    const vm::Module m = random_module(rng, {});
    ASSERT_TRUE(vm::validate(m).ok())
        << "seed " << seed << ": generator produced invalid module";
    const Observation obs = run_sync(m, random_limits(rng));
    fold(digest, obs);
    (obs.outcome.trapped ? traps : finishes) += 1;
  }
  EXPECT_EQ(digest.finalize().hex(), kSyncDigest);
  // The generator must exercise both outcome shapes heavily.
  EXPECT_GE(traps, 100);
  EXPECT_GE(finishes, 100);
}

TEST(VmDifferential, SuspendableSeededModulesMatchPinnedDigest) {
  crypto::Sha256 digest;
  int blocked_runs = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(0xA57C0000 + seed);
    const vm::Module m = random_module(rng, {.with_async = true});
    ASSERT_TRUE(vm::validate(m).ok()) << "seed " << seed;
    const Observation obs = run_async(m, random_limits(rng));
    fold(digest, obs);
    if (!obs.block_log.empty()) ++blocked_runs;
  }
  EXPECT_EQ(digest.finalize().hex(), kSuspendableDigest);
  EXPECT_GE(blocked_runs, 30);
}

// --- A value-level oracle ------------------------------------------------

// The sweeps end every body with `const; return`, so a wrong arithmetic
// result reaches none of their observables. Here seeded straight-line
// bodies return the value they compute, and a test-local evaluator,
// written from the opcode comments in src/vm/isa.hpp, predicts it.

// The result of one body: a value, or the trap that ended it.
struct Expected {
  vm::TrapKind trap = vm::TrapKind::kNone;
  std::int64_t value = 0;
};

// pop b, a; push a OP b. add/sub/mul wrap; div_s traps on a zero divisor
// and on INT64_MIN / -1; rem_s traps on a zero divisor only; shift counts
// are masked to 6 bits; compares push 1 or 0.
Expected oracle_binop(Opcode op, std::int64_t a, std::int64_t b) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  const unsigned count = static_cast<unsigned>(ub % 64);
  const auto value = [](std::uint64_t v) {
    return Expected{vm::TrapKind::kNone, static_cast<std::int64_t>(v)};
  };
  switch (op) {
    case Opcode::kAdd: return value(ua + ub);
    case Opcode::kSub: return value(ua - ub);
    case Opcode::kMul: return value(ua * ub);
    case Opcode::kDivS:
      if (b == 0) return {vm::TrapKind::kDivideByZero, 0};
      if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
        return {vm::TrapKind::kIntegerOverflow, 0};
      return value(static_cast<std::uint64_t>(a / b));
    case Opcode::kRemS:
      if (b == 0) return {vm::TrapKind::kDivideByZero, 0};
      return value(b == -1 ? 0 : static_cast<std::uint64_t>(a % b));
    case Opcode::kAnd: return value(ua & ub);
    case Opcode::kOr: return value(ua | ub);
    case Opcode::kXor: return value(ua ^ ub);
    case Opcode::kShl: return value(ua << count);
    // Arithmetic shift spelled without a signed shift: the vacated high
    // bits copy the sign.
    case Opcode::kShrS: return value(a < 0 ? ~(~ua >> count) : ua >> count);
    case Opcode::kShrU: return value(ua >> count);
    case Opcode::kEq: return value(a == b);
    case Opcode::kNe: return value(a != b);
    case Opcode::kLtS: return value(a < b);
    case Opcode::kGtS: return value(a > b);
    case Opcode::kLeS: return value(a <= b);
    case Opcode::kGeS: return value(a >= b);
    default: ADD_FAILURE() << "not a binop: " << vm::opcode_name(op);
  }
  return {};
}

TEST(VmValueOracle, StraightLineBodiesReturnWhatTheIsaPrescribes) {
  static const Opcode kBinops[] = {
      Opcode::kAdd, Opcode::kSub,  Opcode::kMul,  Opcode::kDivS,
      Opcode::kRemS, Opcode::kAnd, Opcode::kOr,   Opcode::kXor,
      Opcode::kShl, Opcode::kShrS, Opcode::kShrU, Opcode::kEq,
      Opcode::kNe,  Opcode::kLtS,  Opcode::kGtS,  Opcode::kLeS,
      Opcode::kGeS};
  std::map<Opcode, int> executed;
  std::map<vm::TrapKind, int> traps;
  constexpr std::uint64_t kBodies = 3000;
  for (std::uint64_t seed = 0; seed < kBodies; ++seed) {
    Rng rng(0x0AC1E000 + seed);
    vm::ModuleBuilder mb;
    mb.memory(16);
    auto& fb = mb.function(vm::kEntryPointName, 0, 0);
    Expected want{vm::TrapKind::kNone, interesting_const(rng)};
    fb.constant(want.value);
    const std::size_t steps = 1 + rng.index(6);
    for (std::size_t i = 0; i < steps; ++i) {
      // One slot in eighteen is eqz, the one unary opcode.
      const std::size_t pick = rng.index(std::size(kBinops) + 1);
      if (pick == std::size(kBinops)) {
        fb.emit(Opcode::kEqz);
        if (want.trap == vm::TrapKind::kNone)
          want.value = want.value == 0 ? 1 : 0;
        continue;
      }
      const Opcode op = kBinops[pick];
      std::int64_t operand = interesting_const(rng);
      if (op == Opcode::kShl || op == Opcode::kShrS || op == Opcode::kShrU) {
        operand = static_cast<std::int64_t>(rng.index(128));
      } else if ((op == Opcode::kDivS || op == Opcode::kRemS) &&
                 rng.chance(0.5)) {
        operand = rng.chance(0.5) ? 0 : -1;  // the trapping divisors
      }
      fb.constant(operand).emit(op);
      if (want.trap != vm::TrapKind::kNone) continue;  // never reached
      ++executed[op];
      want = oracle_binop(op, want.value, operand);
    }
    fb.ret();
    const vm::Module m = mb.build();
    ASSERT_TRUE(vm::validate(m).ok()) << "seed " << seed;
    auto instance = vm::Instance::create(m, {});
    ASSERT_TRUE(instance.ok()) << instance.error_message();
    const vm::RunOutcome got = instance->run_function(vm::kEntryPointName, {});
    if (want.trap != vm::TrapKind::kNone) {
      ++traps[want.trap];
      EXPECT_TRUE(got.trapped) << "seed " << seed;
      EXPECT_EQ(vm::trap_name(got.trap), vm::trap_name(want.trap))
          << "seed " << seed;
    } else {
      EXPECT_FALSE(got.trapped)
          << "seed " << seed << ": " << got.trap_message;
      EXPECT_EQ(got.value, want.value) << "seed " << seed;
    }
  }
  // Every opcode ran often, and both trapping divisors fired.
  for (Opcode op : kBinops)
    EXPECT_GE(executed[op], 200) << vm::opcode_name(op);
  EXPECT_GE(traps[vm::TrapKind::kDivideByZero], 100);
  EXPECT_GE(traps[vm::TrapKind::kIntegerOverflow], 5);
}

// --- Targeted edge cases the sweeps could plausibly miss ----------------

void expect_trap(const vm::RunOutcome& o, vm::TrapKind kind,
                 const std::string& message, std::uint32_t pc,
                 std::uint64_t fuel_used) {
  EXPECT_TRUE(o.trapped);
  EXPECT_EQ(vm::trap_name(o.trap), vm::trap_name(kind));
  EXPECT_EQ(o.trap_message, message);
  EXPECT_EQ(o.trap_function, 0u);
  EXPECT_EQ(o.trap_pc, pc);
  EXPECT_EQ(o.fuel_used, fuel_used);
}

// A compare-and-branch (local.get; const; lt_s; jump_if) reached with the
// value stack one to three slots from full overflows at the const, the
// first instruction that finds no room.
TEST(VmDifferential, CompareAndBranchOverflowTrapsAtTheConst) {
  for (std::uint32_t max_stack : {1u, 2u, 3u}) {
    vm::ModuleBuilder mb;
    mb.memory(64);
    auto& fb = mb.function(vm::kEntryPointName, 0, 1);
    const auto done = fb.make_label();
    // Fill the stack with `max_stack - 1` values, then hit the pattern.
    for (std::uint32_t i = 0; i + 1 < max_stack; ++i) fb.constant(7);
    fb.local_get(0).constant(5).emit(Opcode::kLtS).jump_if(done);
    fb.bind(done);
    fb.constant(0).ret();
    const vm::Module m = mb.build();
    ASSERT_TRUE(vm::validate(m).ok());

    vm::ExecutionLimits limits;
    limits.max_value_stack = max_stack;
    SCOPED_TRACE("max_value_stack=" + std::to_string(max_stack));
    expect_trap(run_sync(m, limits).outcome, vm::TrapKind::kStackOverflow,
                "value stack overflow at const", max_stack, max_stack + 1);
  }
}

// A const-arith pair executed against an empty stack must underflow at
// the arithmetic op (second pc), not the const.
TEST(VmDifferential, ConstArithUnderflowTrapsAtTheArithmetic) {
  vm::ModuleBuilder mb;
  mb.memory(64);
  auto& fb = mb.function(vm::kEntryPointName, 0, 1);
  fb.constant(3).emit(Opcode::kAdd);  // underflow: only one operand
  fb.constant(0).ret();
  const vm::Module m = mb.build();
  ASSERT_TRUE(vm::validate(m).ok());

  expect_trap(run_sync(m, {}).outcome, vm::TrapKind::kStackUnderflow,
              "stack underflow at add", 1, 2);
}

// Fuel runs out at the exact instruction the budget reaches, for every
// budget of an arithmetic loop whose body is 15 instructions long.
TEST(VmDifferential, FuelExhaustionStopsAtTheExactInstruction) {
  vm::ModuleBuilder mb;
  mb.memory(64);
  auto& fb = mb.function(vm::kEntryPointName, 0, 2);
  const auto top = fb.make_label();
  const auto done = fb.make_label();
  fb.bind(top);
  fb.local_get(0).constant(50).emit(Opcode::kGeS).jump_if(done);
  fb.local_get(1).local_get(0).emit(Opcode::kMul).constant(7).emit(
      Opcode::kAdd);
  fb.local_set(1);
  fb.local_get(0).constant(1).emit(Opcode::kAdd).local_set(0);
  fb.jump(top);
  fb.bind(done);
  fb.local_get(1).ret();
  const vm::Module m = mb.build();
  ASSERT_TRUE(vm::validate(m).ok());

  for (std::uint64_t fuel = 0; fuel < 160; ++fuel) {
    vm::ExecutionLimits limits;
    limits.fuel = fuel;
    SCOPED_TRACE("fuel=" + std::to_string(fuel));
    expect_trap(run_sync(m, limits).outcome, vm::TrapKind::kOutOfFuel,
                "fuel exhausted in 'run_debuglet'",
                static_cast<std::uint32_t>(fuel % 15), fuel);
  }
}

// A memory trap mid-block charges only the instructions that ran, the
// trapping one included.
TEST(VmDifferential, MidBlockTrapChargesOnlyExecutedInstructions) {
  vm::ModuleBuilder mb;
  mb.memory(64);
  auto& fb = mb.function(vm::kEntryPointName, 0, 1);
  fb.constant(1).constant(2).emit(Opcode::kAdd);  // 3 insts execute
  fb.constant(1 << 20).emit(Opcode::kLoad64);     // 5th inst traps
  fb.emit(Opcode::kDrop);                         // never reached
  fb.constant(0).ret();
  const vm::Module m = mb.build();
  ASSERT_TRUE(vm::validate(m).ok());

  expect_trap(run_sync(m, {}).outcome, vm::TrapKind::kMemoryOutOfBounds,
              "load at 1048576", 4, 5);
}

// resume() into a full value stack traps at the blocked call_host without
// running code. Only a zero-arity async call can block with a full stack
// (popping args frees slots), so the module parks a value and calls
// h_block0.
TEST(VmDifferential, ResumeOverflowTrapsAtTheBlockedCall) {
  vm::ModuleBuilder mb;
  mb.memory(64);
  auto& fb = mb.function(vm::kEntryPointName, 0, 1);
  fb.constant(1);  // occupies the whole (size-1) stack
  fb.call_host("h_block0");
  fb.emit(Opcode::kDrop);
  fb.constant(0).ret();
  const vm::Module m = mb.build();
  ASSERT_TRUE(vm::validate(m).ok());

  std::vector<HostCall> host_log;
  vm::ExecutionLimits limits;
  limits.max_value_stack = 1;
  auto instance = vm::Instance::create(m, make_hosts(&host_log, true), limits);
  ASSERT_TRUE(instance.ok()) << instance.error_message();
  auto exec = vm::Execution::start(*instance, vm::kEntryPointName, {});
  ASSERT_TRUE(exec.ok());
  ASSERT_EQ(exec->step(), vm::Execution::State::kBlocked);
  EXPECT_EQ(exec->block().import_name, "h_block0");
  EXPECT_TRUE(exec->block().args.empty());
  exec->resume(42);  // stack already full: traps without running code
  EXPECT_EQ(exec->step(), vm::Execution::State::kDone);
  // const (1) + call_host (1 + kHostCallFuelCost 32).
  expect_trap(exec->outcome(), vm::TrapKind::kStackOverflow,
              "overflow resuming host call", 1, 34);
  EXPECT_EQ(exec->outcome().host_calls, 1u);
  EXPECT_TRUE(host_log.empty());
}

// Globals persist on the instance: each run observes the previous run's
// writes.
TEST(VmDifferential, GlobalsPersistAcrossRuns) {
  vm::ModuleBuilder mb;
  mb.memory(64);
  const auto g = mb.add_global(0);
  auto& fb = mb.function(vm::kEntryPointName, 0, 0);
  fb.global_get(g).constant(1).emit(Opcode::kAdd).global_set(g);
  fb.global_get(g).ret();
  const vm::Module m = mb.build();
  ASSERT_TRUE(vm::validate(m).ok());

  auto instance = vm::Instance::create(m, {}, {});
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->run().value, 1);
  EXPECT_EQ(instance->run().value, 2);
  EXPECT_EQ(instance->run().value, 3);
}

}  // namespace
}  // namespace debuglet
