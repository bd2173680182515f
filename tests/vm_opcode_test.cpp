// Systematic per-opcode semantics: every binary/unary operator checked
// against reference C++ semantics across a grid of operands, including
// wrapping, sign, and shift-mask edge cases.
#include <gtest/gtest.h>

#include <limits>

#include "vm/builder.hpp"
#include "vm/interpreter.hpp"
#include "vm/validator.hpp"

namespace debuglet::vm {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// Runs `a op b` through the interpreter.
RunOutcome run_binop(Opcode op, std::int64_t a, std::int64_t b) {
  ModuleBuilder builder;
  builder.memory(64);
  auto& f = builder.function(kEntryPointName);
  f.constant(a).constant(b).emit(op).ret();
  Module m = builder.build();
  EXPECT_TRUE(validate(m).ok());
  auto inst = Instance::create(std::move(m), {});
  EXPECT_TRUE(inst.ok());
  return inst->run();
}

struct BinCase {
  Opcode op;
  std::int64_t a;
  std::int64_t b;
  std::int64_t expected;
};

class BinOp : public ::testing::TestWithParam<BinCase> {};

TEST_P(BinOp, MatchesReferenceSemantics) {
  const BinCase& c = GetParam();
  const RunOutcome out = run_binop(c.op, c.a, c.b);
  ASSERT_FALSE(out.trapped) << out.trap_message;
  EXPECT_EQ(out.value, c.expected)
      << opcode_name(c.op) << "(" << c.a << ", " << c.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinOp,
    ::testing::Values(
        BinCase{Opcode::kAdd, 2, 3, 5},
        BinCase{Opcode::kAdd, kMax, 1, kMin},  // wrapping
        BinCase{Opcode::kAdd, -5, 5, 0},
        BinCase{Opcode::kSub, 2, 3, -1},
        BinCase{Opcode::kSub, kMin, 1, kMax},  // wrapping
        BinCase{Opcode::kMul, -4, 6, -24},
        BinCase{Opcode::kMul, kMax, 2, -2},    // wrapping
        BinCase{Opcode::kDivS, 7, 2, 3},
        BinCase{Opcode::kDivS, -7, 2, -3},     // C++ truncation toward zero
        BinCase{Opcode::kDivS, 7, -2, -3},
        BinCase{Opcode::kRemS, 7, 2, 1},
        BinCase{Opcode::kRemS, -7, 2, -1},
        BinCase{Opcode::kRemS, kMin, -1, 0}));  // defined, no trap

INSTANTIATE_TEST_SUITE_P(
    Bitwise, BinOp,
    ::testing::Values(
        BinCase{Opcode::kAnd, 0b1100, 0b1010, 0b1000},
        BinCase{Opcode::kOr, 0b1100, 0b1010, 0b1110},
        BinCase{Opcode::kXor, 0b1100, 0b1010, 0b0110},
        BinCase{Opcode::kAnd, -1, 0x7F, 0x7F},
        BinCase{Opcode::kShl, 1, 63, kMin},
        BinCase{Opcode::kShl, 1, 64, 1},       // count masked to 6 bits
        BinCase{Opcode::kShl, 1, 65, 2},
        BinCase{Opcode::kShrU, -1, 1, kMax},   // logical shift
        BinCase{Opcode::kShrS, -8, 2, -2},     // arithmetic shift
        BinCase{Opcode::kShrS, 8, 2, 2},
        BinCase{Opcode::kShrS, kMin, 63, -1},  // counts past 31 shift too
        BinCase{Opcode::kShrS, kMin, 104, -8388608},  // 104 & 63 = 40
        BinCase{Opcode::kShrU, -1, 63, 1},
        BinCase{Opcode::kShrU, 8, 64, 8}));    // masked

INSTANTIATE_TEST_SUITE_P(
    Comparison, BinOp,
    ::testing::Values(
        BinCase{Opcode::kEq, 5, 5, 1}, BinCase{Opcode::kEq, 5, 6, 0},
        BinCase{Opcode::kNe, 5, 6, 1}, BinCase{Opcode::kNe, 5, 5, 0},
        BinCase{Opcode::kLtS, -1, 0, 1}, BinCase{Opcode::kLtS, 0, -1, 0},
        BinCase{Opcode::kGtS, 3, 2, 1}, BinCase{Opcode::kGtS, 2, 3, 0},
        BinCase{Opcode::kLeS, 2, 2, 1}, BinCase{Opcode::kLeS, 3, 2, 0},
        BinCase{Opcode::kGeS, 2, 2, 1}, BinCase{Opcode::kGeS, 2, 3, 0},
        BinCase{Opcode::kLtS, kMin, kMax, 1},
        BinCase{Opcode::kGtS, kMax, kMin, 1}));

TEST(UnaryOps, EqzAndDup) {
  ModuleBuilder builder;
  builder.memory(64);
  auto& f = builder.function(kEntryPointName);
  // dup(7) -> eqz(top) -> 0; add -> 7 + 0 = 7.
  f.constant(7).emit(Opcode::kDup).emit(Opcode::kEqz).emit(Opcode::kAdd);
  f.ret();
  auto inst = Instance::create(builder.build(), {});
  EXPECT_EQ(inst->run().value, 7);
}

TEST(MemoryOps, Load32ZeroExtends) {
  ModuleBuilder builder;
  builder.memory(64);
  auto& f = builder.function(kEntryPointName);
  // store64(-1) then load32 -> 0xFFFFFFFF (zero-extended, positive).
  f.constant(0).constant(-1).emit(Opcode::kStore64);
  f.constant(0).emit(Opcode::kLoad32);
  f.ret();
  auto inst = Instance::create(builder.build(), {});
  EXPECT_EQ(inst->run().value, 0xFFFFFFFFLL);
}

TEST(MemoryOps, Store32TruncatesHighBits) {
  ModuleBuilder builder;
  builder.memory(64);
  auto& f = builder.function(kEntryPointName);
  // Pre-fill 8 bytes with -1; store32 of 0 overwrites only the low 4.
  f.constant(0).constant(-1).emit(Opcode::kStore64);
  f.constant(0).constant(0).emit(Opcode::kStore32);
  f.constant(0).emit(Opcode::kLoad64);
  f.ret();
  auto inst = Instance::create(builder.build(), {});
  EXPECT_EQ(static_cast<std::uint64_t>(inst->run().value),
            0xFFFFFFFF00000000ULL);
}

TEST(MemoryOps, MemSizeReportsBytes) {
  ModuleBuilder builder;
  builder.memory(12345);
  auto& f = builder.function(kEntryPointName);
  f.emit(Opcode::kMemSize).ret();
  auto inst = Instance::create(builder.build(), {});
  EXPECT_EQ(inst->run().value, 12345);
}

TEST(MemoryOps, StaticOffsetAddsToAddress) {
  ModuleBuilder builder;
  builder.memory(64);
  auto& f = builder.function(kEntryPointName);
  f.constant(16).constant(99).emit(Opcode::kStore64, 8);  // writes at 24
  f.constant(24).emit(Opcode::kLoad64);
  f.ret();
  auto inst = Instance::create(builder.build(), {});
  EXPECT_EQ(inst->run().value, 99);
}

TEST(TrapGrid, DivRemByZeroAcrossOperands) {
  for (std::int64_t a : {0LL, 1LL, -1LL, static_cast<long long>(kMin)}) {
    auto div = run_binop(Opcode::kDivS, a, 0);
    EXPECT_TRUE(div.trapped);
    EXPECT_EQ(div.trap, TrapKind::kDivideByZero);
    auto rem = run_binop(Opcode::kRemS, a, 0);
    EXPECT_TRUE(rem.trapped);
    EXPECT_EQ(rem.trap, TrapKind::kDivideByZero);
  }
}

}  // namespace
}  // namespace debuglet::vm
