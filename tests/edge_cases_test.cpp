// Cross-module edge cases: gas budget caps, view-vs-transaction parity,
// real-app assembler round trips, time-exceeded codec, and initiator
// error paths.
#include <gtest/gtest.h>

#include "apps/debuglets.hpp"
#include "core/debuglet.hpp"
#include "marketplace/contract.hpp"
#include "vm/assembler.hpp"
#include "vm/validator.hpp"

namespace debuglet {
namespace {

using net::Protocol;

// --- Chain: gas budget semantics ---------------------------------------------

class SinkContract : public chain::Contract {
 public:
  std::string name() const override { return "sink"; }
  Result<Bytes> call(chain::CallContext& ctx, const std::string& function,
                     BytesView args) override {
    if (function == "store") {
      auto id = ctx.create_object(Bytes(args.begin(), args.end()));
      if (!id) return id.error();
      return Bytes{};
    }
    return Bytes{};
  }
};

TEST(ChainEdge, GasBudgetCapsTheCharge) {
  chain::Blockchain chain;
  ASSERT_TRUE(chain.register_contract(std::make_unique<SinkContract>()).ok());
  const crypto::KeyPair key = crypto::KeyPair::from_seed(1);
  const chain::Address addr = chain::Address::of(key.public_key());
  chain.mint(addr, 1'000'000'000'000ULL);

  // Storing 10 kB normally costs ~0.23 SUI; a 0.02 SUI budget caps it.
  const chain::Mist budget = 20'000'000;
  const chain::Mist before = chain.balance(addr);
  auto receipt = chain.submit(chain.make_transaction(
      key, "sink", "store", Bytes(10'000, 1), 0, budget));
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->gas_charged, budget);
  EXPECT_EQ(before - chain.balance(addr), budget);
}

TEST(ChainEdge, ViewOfUnknownContractFails) {
  chain::Blockchain chain;
  EXPECT_FALSE(chain.view("ghost", "f", {}).ok());
}

TEST(ChainEdge, MintAndBalanceArithmetic) {
  chain::Blockchain chain;
  const chain::Address a =
      chain::Address::of(crypto::KeyPair::from_seed(2).public_key());
  EXPECT_EQ(chain.balance(a), 0u);
  chain.mint(a, 5);
  chain.mint(a, 7);
  EXPECT_EQ(chain.balance(a), 12u);
}

// --- Marketplace: view parity -------------------------------------------------

TEST(MarketEdge, LookupSlotViewMatchesTransaction) {
  chain::Blockchain chain;
  auto contract = std::make_unique<marketplace::MarketplaceContract>();
  ASSERT_TRUE(chain.register_contract(std::move(contract)).ok());
  const crypto::KeyPair as_key = crypto::KeyPair::from_seed(3);
  const crypto::KeyPair user = crypto::KeyPair::from_seed(4);
  chain.mint(chain::Address::of(as_key.public_key()), 1'000'000'000'000ULL);
  chain.mint(chain::Address::of(user.public_key()), 1'000'000'000'000ULL);

  const topology::InterfaceKey k1{1, 1}, k2{2, 1};
  for (topology::InterfaceKey k : {k1, k2}) {
    auto r = chain.submit(chain.make_transaction(
        as_key, marketplace::kContractName, "RegisterExecutor",
        marketplace::RegisterExecutorArgs{k}.serialize()));
    ASSERT_TRUE(r.ok() && r->success) << r->error;
    marketplace::TimeSlot slot;
    slot.start = 100;
    slot.end = 200;
    slot.price = 9;
    auto r2 = chain.submit(chain.make_transaction(
        as_key, marketplace::kContractName, "RegisterTimeSlot",
        marketplace::RegisterTimeSlotArgs{k, {{slot, 1}}}.serialize()));
    ASSERT_TRUE(r2.ok() && r2->success) << r2->error;
  }

  marketplace::LookupSlotArgs query;
  query.client_key = k1;
  query.server_key = k2;
  // Via a (free) view call:
  auto view = chain.view(marketplace::kContractName, "LookupSlot",
                         query.serialize());
  ASSERT_TRUE(view.ok());
  auto view_quote = marketplace::SlotQuote::parse(
      BytesView(view->data(), view->size()));
  // Via a transaction:
  auto tx = chain.submit(chain.make_transaction(
      user, marketplace::kContractName, "LookupSlot", query.serialize()));
  ASSERT_TRUE(tx.ok() && tx->success);
  auto tx_quote = marketplace::SlotQuote::parse(
      BytesView(tx->return_value.data(), tx->return_value.size()));
  ASSERT_TRUE(view_quote.ok());
  ASSERT_TRUE(tx_quote.ok());
  EXPECT_EQ(view_quote->found, tx_quote->found);
  EXPECT_EQ(view_quote->window_start, tx_quote->window_start);
  EXPECT_EQ(view_quote->total_price, tx_quote->total_price);
  EXPECT_EQ(view_quote->total_price, 18u);
}

// --- VM: real apps round-trip through the assembler ---------------------------

class AppRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(AppRoundTrip, DisassembleReassembleIsIdentity) {
  vm::Module original;
  switch (GetParam()) {
    case 0: original = apps::make_probe_client_debuglet(); break;
    case 1: original = apps::make_echo_server_debuglet(); break;
    case 2: original = apps::make_oneway_sender_debuglet(); break;
    case 3: original = apps::make_oneway_receiver_debuglet(); break;
  }
  ASSERT_TRUE(vm::validate(original).ok());
  const std::string text = vm::disassemble(original);
  auto back = vm::assemble(text);
  ASSERT_TRUE(back.ok()) << back.error_message();
  EXPECT_EQ(*back, original);
  // And the binary codec agrees.
  const Bytes wire = original.serialize();
  auto parsed = vm::Module::parse(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, original);
}

std::string app_name(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"probe_client", "echo_server",
                                 "oneway_sender", "oneway_receiver"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppRoundTrip, ::testing::Range(0, 4),
                         app_name);

TEST(VmEdge, JumpIfZTakenOnZeroOnly) {
  auto out = [] {
    auto module = vm::assemble(R"(
      func run_debuglet
        const 0
        jump_ifz zero_path
        const 111
        return
      zero_path:
        const 222
        return
      end
    )");
    auto inst = vm::Instance::create(std::move(*module), {});
    return inst->run();
  }();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value, 222);
}

TEST(VmEdge, ParametersFlowThroughNestedCalls) {
  auto module = vm::assemble(R"(
    func run_debuglet
      const 3
      const 4
      call hyp2
      return
    end
    func hyp2 params 2
      local.get 0
      local.get 0
      mul
      local.get 1
      local.get 1
      mul
      add
      return
    end
  )");
  ASSERT_TRUE(module.ok()) << module.error_message();
  ASSERT_TRUE(vm::validate(*module).ok());
  auto inst = vm::Instance::create(std::move(*module), {});
  EXPECT_EQ(inst->run().value, 25);
}

// --- net: time-exceeded codec --------------------------------------------------

TEST(NetEdge, TimeExceededRoundTrip) {
  net::ProbeSpec spec;
  spec.protocol = Protocol::kUdp;
  spec.source = net::Ipv4Address(10, 0, 1, 200);
  spec.destination = net::Ipv4Address(10, 0, 9, 200);
  spec.sequence = 4242;
  spec.ttl = 3;
  spec.payload = bytes_of("expiring");
  auto wire = net::build_probe(spec);
  ASSERT_TRUE(wire.ok());
  auto packet = net::parse_packet(BytesView(wire->data(), wire->size()));
  ASSERT_TRUE(packet.ok());
  EXPECT_EQ(packet->ip.ttl, 3);

  const net::Ipv4Address router(10, 0, 5, 1);
  auto te_wire = net::build_time_exceeded(*packet, router);
  ASSERT_TRUE(te_wire.ok());
  auto te = net::parse_packet(BytesView(te_wire->data(), te_wire->size()));
  ASSERT_TRUE(te.ok()) << te.error_message();
  EXPECT_EQ(te->protocol, Protocol::kIcmp);
  ASSERT_TRUE(te->icmp.has_value());
  EXPECT_EQ(te->icmp->type, net::kIcmpTimeExceeded);
  EXPECT_EQ(te->ip.source, router);
  EXPECT_EQ(te->ip.destination, spec.source);
  EXPECT_EQ(te->ip.identification, 4242);
  BytesReader r(BytesView(te->payload.data(), te->payload.size()));
  EXPECT_EQ(*r.u64(), 4242u);
}

// --- Initiator error paths ------------------------------------------------------

TEST(InitiatorEdge, UnderfundedInitiatorCannotPurchase) {
  core::DebugletSystem system(simnet::build_chain_scenario(2, 71, 5.0));
  core::Initiator pauper(system, 72, /*funding=*/1000);  // dust
  auto handle = pauper.purchase_rtt_measurement({1, 2}, {2, 1},
                                                Protocol::kUdp, 5, 100);
  EXPECT_FALSE(handle.ok());
  EXPECT_NE(handle.error_message().find("insufficient balance"),
            std::string::npos);
}

TEST(InitiatorEdge, CollectOfBogusHandleFails) {
  core::DebugletSystem system(simnet::build_chain_scenario(2, 73, 5.0));
  core::Initiator initiator(system, 74, 500'000'000'000ULL);
  core::MeasurementHandle bogus;
  bogus.client_application = 999;
  bogus.server_application = 1000;
  bogus.client_key = {1, 2};
  bogus.server_key = {2, 1};
  EXPECT_FALSE(initiator.collect(bogus).ok());
}

TEST(InitiatorEdge, SummarizeRejectsCorruptOutput) {
  executor::CertifiedResult result;
  result.record.output = bytes_of("not-a-multiple-of-16b");
  EXPECT_FALSE(core::summarize_rtt(result, 5).ok());
}

}  // namespace
}  // namespace debuglet
