// Validator regression tests for the indices the interpreter trusts.
//
// The interpreter (vm/interpreter.hpp) uses jump targets and local,
// global, function and host-import indices as unchecked array indices, so
// anything out of range MUST be rejected before a run: by Module::parse
// for malformed bytes (truncated multi-byte immediates), by vm::validate
// for in-range-syntax but out-of-range-semantics code, and — belt and
// braces — by Instance::create itself when handed an unvalidated module.
#include <gtest/gtest.h>

#include <string>

#include "util/bytes.hpp"
#include "vm/interpreter.hpp"
#include "vm/validator.hpp"

namespace debuglet {
namespace {

using vm::Opcode;

vm::Module minimal_module() {
  vm::Module m;
  m.memory_size = 64;
  vm::Function f;
  f.name = vm::kEntryPointName;
  f.code = {{Opcode::kConst, 0}, {Opcode::kReturn, 0}};
  m.functions.push_back(f);
  return m;
}

// --- Jump targets -------------------------------------------------------

// Jump targets are instruction indices, never byte offsets. A target that
// would "land inside" a multi-byte immediate in the serialized form is
// simply an index >= code length after decoding, and must be rejected.
TEST(VmValidator, JumpTargetIntoImmediateBytesRejected) {
  vm::Module m = minimal_module();
  // Serialized layout of the body: [const op][8 imm bytes][jump op]
  // [8 imm bytes][return op]. Byte offset 1 lands inside const's
  // immediate; as an instruction index it is the jump itself — legal. Use
  // targets past the decoded instruction count to model byte-offset
  // confusion.
  for (std::int64_t target : {3, 4, 11, 19}) {  // code has 3 instructions
    m.functions[0].code = {{Opcode::kConst, 0x0101010101010101},
                           {Opcode::kJump, target},
                           {Opcode::kReturn, 0}};
    auto status = vm::validate(m);
    ASSERT_FALSE(status.ok()) << "target " << target;
    EXPECT_NE(status.error_message().find("jump target out of range"),
              std::string::npos)
        << status.error_message();
  }
  // The boundary cases: last instruction is fine, one past is not.
  m.functions[0].code = {{Opcode::kConst, 0},
                         {Opcode::kJump, 2},
                         {Opcode::kReturn, 0}};
  EXPECT_TRUE(vm::validate(m).ok());
  m.functions[0].code[1].imm = -1;
  EXPECT_FALSE(vm::validate(m).ok());
}

TEST(VmValidator, CreateRejectsUnvalidatedJumpTargets) {
  for (Opcode op : {Opcode::kJump, Opcode::kJumpIf, Opcode::kJumpIfZ}) {
    for (std::int64_t target : {3, 99, -1}) {  // code has 3 instructions
      vm::Module m = minimal_module();
      m.functions[0].code = {
          {Opcode::kConst, 1}, {op, target}, {Opcode::kReturn, 0}};
      auto instance = vm::Instance::create(m, {}, {});
      ASSERT_FALSE(instance.ok()) << vm::opcode_name(op) << " " << target;
      EXPECT_NE(instance.error_message().find("jump target out of range"),
                std::string::npos)
          << instance.error_message();
    }
  }
}

// --- Truncated immediates -----------------------------------------------

// A function body whose trailing instruction claims an immediate but the
// byte stream ends mid-immediate must fail at parse, cleanly.
TEST(VmValidator, TruncatedTrailingImmediateFailsParse) {
  const Bytes valid = minimal_module().serialize();
  ASSERT_TRUE(vm::Module::parse(BytesView(valid.data(), valid.size())).ok());

  // The serialized stream ends with: ...[const][imm x8][return][end tag].
  // Chop from the back: every prefix that cuts into the function section
  // must be rejected without crashing. (The final byte is the end tag;
  // dropping only it already breaks section framing.)
  for (std::size_t cut = 1; cut <= 12 && cut < valid.size(); ++cut) {
    Bytes truncated(valid.begin(),
                    valid.end() - static_cast<std::ptrdiff_t>(cut));
    auto parsed =
        vm::Module::parse(BytesView(truncated.data(), truncated.size()));
    EXPECT_FALSE(parsed.ok()) << "cut " << cut << " bytes";
  }
}

// Hand-crafted bytes: a code section that declares two instructions but
// provides only `const` + 3 of its 8 immediate bytes.
TEST(VmValidator, HandCraftedTruncatedImmediateFailsParse) {
  BytesWriter w;
  w.u32(0x44564D31);  // magic "DVM1"
  w.u8(5);            // function section
  w.varint(1);        // one function
  w.str(vm::kEntryPointName);
  w.varint(0);  // params
  w.varint(0);  // locals
  w.varint(2);  // claims two instructions
  w.u8(static_cast<std::uint8_t>(Opcode::kConst));
  w.u8(0xAA);  // 3 of 8 immediate bytes, then EOF
  w.u8(0xBB);
  w.u8(0xCC);
  const Bytes data = w.take();
  auto parsed = vm::Module::parse(BytesView(data.data(), data.size()));
  ASSERT_FALSE(parsed.ok());
}

// --- Out-of-range call indices --------------------------------------------

TEST(VmValidator, OutOfRangeCallIndexRejected) {
  for (std::int64_t callee : {1, 2, 1000000, -1}) {
    vm::Module m = minimal_module();  // exactly one function: index 0
    m.functions[0].code = {{Opcode::kCall, callee},
                           {Opcode::kConst, 0},
                           {Opcode::kReturn, 0}};
    auto status = vm::validate(m);
    ASSERT_FALSE(status.ok()) << "callee " << callee;
    EXPECT_NE(status.error_message().find("function index out of range"),
              std::string::npos)
        << status.error_message();
    auto instance = vm::Instance::create(m, {}, {});
    ASSERT_FALSE(instance.ok()) << "callee " << callee;
    EXPECT_NE(instance.error_message().find("function index out of range"),
              std::string::npos)
        << instance.error_message();
  }
}

TEST(VmValidator, OutOfRangeCallHostIndexRejected) {
  for (std::int64_t import : {0, 1, 77, -1}) {  // module imports nothing
    vm::Module m = minimal_module();
    m.functions[0].code = {{Opcode::kCallHost, import},
                           {Opcode::kConst, 0},
                           {Opcode::kReturn, 0}};
    auto status = vm::validate(m);
    ASSERT_FALSE(status.ok()) << "import " << import;
    EXPECT_NE(status.error_message().find("host import index out of range"),
              std::string::npos)
        << status.error_message();
    auto instance = vm::Instance::create(m, {}, {});
    ASSERT_FALSE(instance.ok()) << "import " << import;
    EXPECT_NE(
        instance.error_message().find("host import index out of range"),
        std::string::npos)
        << instance.error_message();
  }
  // With one import declared, index 0 is fine and index 1 is not.
  vm::Module m = minimal_module();
  m.host_imports = {"h"};
  m.functions[0].code = {{Opcode::kConst, 1},
                         {Opcode::kDrop, 0},
                         {Opcode::kCallHost, 0},
                         {Opcode::kReturn, 0}};
  EXPECT_TRUE(vm::validate(m).ok());
  m.functions[0].code[2].imm = 1;
  EXPECT_FALSE(vm::validate(m).ok());
}

// --- Local/global indices never reach the interpreter ----------------------

TEST(VmValidator, CreateRejectsOutOfRangeLocalsAndGlobals) {
  for (Opcode op : {Opcode::kLocalGet, Opcode::kLocalSet}) {
    for (std::int64_t index : {5, -1}) {  // no params, no locals
      vm::Module m = minimal_module();
      m.functions[0].code = {{Opcode::kConst, 0}, {op, index},
                             {Opcode::kConst, 0}, {Opcode::kReturn, 0}};
      EXPECT_FALSE(vm::validate(m).ok()) << index;
      auto instance = vm::Instance::create(m, {}, {});
      ASSERT_FALSE(instance.ok()) << index;
      EXPECT_NE(instance.error_message().find("local index out of range"),
                std::string::npos)
          << instance.error_message();
    }
  }
  for (Opcode op : {Opcode::kGlobalGet, Opcode::kGlobalSet}) {
    for (std::int64_t index : {0, -1}) {  // no globals declared
      vm::Module m = minimal_module();
      m.functions[0].code = {{Opcode::kConst, 0}, {op, index},
                             {Opcode::kConst, 0}, {Opcode::kReturn, 0}};
      EXPECT_FALSE(vm::validate(m).ok()) << index;
      auto instance = vm::Instance::create(m, {}, {});
      ASSERT_FALSE(instance.ok()) << index;
      EXPECT_NE(instance.error_message().find("global index out of range"),
                std::string::npos)
          << instance.error_message();
    }
  }
  // One param plus one local make indices 0 and 1 valid, 2 not.
  vm::Module m = minimal_module();
  m.functions[0].param_count = 1;
  m.functions[0].local_count = 1;
  m.functions[0].code = {{Opcode::kLocalGet, 1}, {Opcode::kReturn, 0}};
  EXPECT_TRUE(vm::Instance::create(m, {}, {}).ok());
  m.functions[0].code[0].imm = 2;
  EXPECT_FALSE(vm::Instance::create(m, {}, {}).ok());
}

}  // namespace
}  // namespace debuglet
