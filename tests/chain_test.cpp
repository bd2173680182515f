#include <gtest/gtest.h>

#include "chain/chain.hpp"

namespace debuglet::chain {
namespace {

// A small test contract exercising objects, escrow and events.
class CounterContract : public Contract {
 public:
  std::string name() const override { return "counter"; }

  Result<Bytes> call(CallContext& ctx, const std::string& function,
                     BytesView args) override {
    if (function == "increment") {
      ++count_;
      BytesWriter w;
      w.u64(count_);
      ctx.emit_event("Incremented", std::to_string(count_), Bytes{});
      return w.take();
    }
    if (function == "store") {
      auto id = ctx.create_object(Bytes(args.begin(), args.end()));
      if (!id) return id.error();
      BytesWriter w;
      w.u64(*id);
      return w.take();
    }
    if (function == "erase") {
      BytesReader r(args);
      auto id = r.u64();
      if (!id) return id.error();
      if (auto s = ctx.delete_object(*id); !s) return s.error();
      return Bytes{};
    }
    if (function == "payout") {
      if (auto s = ctx.pay_from_escrow(ctx.sender(), ctx.attached_tokens());
          !s)
        return s.error();
      return Bytes{};
    }
    if (function == "boom") return fail("deliberate failure");
    return fail("unknown function");
  }

 private:
  std::uint64_t count_ = 0;
};

struct ChainFixture : ::testing::Test {
  void SetUp() override {
    ASSERT_TRUE(chain.register_contract(
        std::make_unique<CounterContract>()).ok());
    chain.mint(Address::of(alice.public_key()), 100'000'000'000);
    chain.mint(Address::of(bob.public_key()), 100'000'000'000);
  }

  Blockchain chain;
  crypto::KeyPair alice = crypto::KeyPair::from_seed(101);
  crypto::KeyPair bob = crypto::KeyPair::from_seed(102);
};

TEST_F(ChainFixture, SubmitExecutesAndCommits) {
  auto tx = chain.make_transaction(alice, "counter", "increment", {});
  auto receipt = chain.submit(tx);
  ASSERT_TRUE(receipt.ok()) << receipt.error_message();
  EXPECT_TRUE(receipt->success);
  BytesReader r(BytesView(receipt->return_value.data(),
                          receipt->return_value.size()));
  EXPECT_EQ(*r.u64(), 1u);
  EXPECT_EQ(chain.height(), 2u);  // genesis + 1
  EXPECT_TRUE(chain.verify_integrity());
}

TEST_F(ChainFixture, GasChargedMatchesSchedule) {
  const Mist before = chain.balance(Address::of(alice.public_key()));
  auto receipt = chain.submit(
      chain.make_transaction(alice, "counter", "increment", {}));
  ASSERT_TRUE(receipt.ok());
  const Mist after = chain.balance(Address::of(alice.public_key()));
  EXPECT_EQ(before - after, receipt->gas_charged);
  EXPECT_EQ(receipt->gas_charged, kComputationFee)
      << "no storage -> computation only";
}

TEST_F(ChainFixture, StorageCostAndRebateMatchTable2Shape) {
  const Address a = Address::of(alice.public_key());
  for (std::size_t size : {0u, 100u, 1024u, 5120u, 10240u}) {
    const Mist before = chain.balance(a);
    auto receipt = chain.submit(chain.make_transaction(
        alice, "counter", "store", Bytes(size, 0xAB)));
    ASSERT_TRUE(receipt.ok());
    ASSERT_TRUE(receipt->success);
    const Mist charged = before - chain.balance(a);
    EXPECT_EQ(charged, submission_cost(size)) << "size " << size;
    EXPECT_EQ(receipt->storage_rebate_accrued, storage_rebate(size));

    // Deleting the object refunds exactly the rebate.
    BytesReader r(BytesView(receipt->return_value.data(),
                            receipt->return_value.size()));
    const ObjectId id = *r.u64();
    const Mist before_erase = chain.balance(a);
    auto erase = chain.submit(chain.make_transaction(
        alice, "counter", "erase", [&] {
          BytesWriter w;
          w.u64(id);
          return w.take();
        }()));
    ASSERT_TRUE(erase.ok());
    ASSERT_TRUE(erase->success);
    const Mist delta = chain.balance(a) + erase->gas_charged - before_erase;
    EXPECT_EQ(delta, storage_rebate(size)) << "size " << size;
    EXPECT_FALSE(chain.object_exists(id));
  }
}

TEST_F(ChainFixture, NonceEnforced) {
  auto tx = chain.make_transaction(alice, "counter", "increment", {});
  ASSERT_TRUE(chain.submit(tx).ok());
  // Replaying the same transaction must fail (nonce already used).
  EXPECT_FALSE(chain.submit(tx).ok());
}

TEST_F(ChainFixture, SignatureEnforced) {
  auto tx = chain.make_transaction(alice, "counter", "increment", {});
  tx.attached_tokens = 12345;  // tamper after signing
  EXPECT_FALSE(chain.submit(tx).ok());
}

TEST_F(ChainFixture, InsufficientBalanceRejected) {
  crypto::KeyPair pauper = crypto::KeyPair::from_seed(103);
  auto tx = chain.make_transaction(pauper, "counter", "increment", {});
  EXPECT_FALSE(chain.submit(tx).ok());
}

TEST_F(ChainFixture, UnknownContractRejected) {
  auto tx = chain.make_transaction(alice, "nonexistent", "f", {});
  EXPECT_FALSE(chain.submit(tx).ok());
}

TEST_F(ChainFixture, FailedCallRefundsAttachedTokens) {
  const Address a = Address::of(alice.public_key());
  const Mist before = chain.balance(a);
  auto receipt = chain.submit(
      chain.make_transaction(alice, "counter", "boom", {}, 5'000'000));
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_EQ(receipt->error, "deliberate failure");
  // Only gas is lost; the attached tokens come back.
  EXPECT_EQ(before - chain.balance(a), receipt->gas_charged);
  EXPECT_EQ(chain.escrow_balance("counter"), 0u);
}

TEST_F(ChainFixture, EscrowPayout) {
  const Address a = Address::of(alice.public_key());
  const Mist before = chain.balance(a);
  auto receipt = chain.submit(
      chain.make_transaction(alice, "counter", "payout", {}, 7'000'000));
  ASSERT_TRUE(receipt.ok());
  ASSERT_TRUE(receipt->success);
  // Tokens went to escrow and straight back to alice; net cost is gas.
  EXPECT_EQ(before - chain.balance(a), receipt->gas_charged);
}

TEST_F(ChainFixture, EventsDispatchWithKeyFilter) {
  std::vector<std::string> seen_any, seen_two;
  chain.subscribe("counter", "Incremented", "",
                  [&](const Event& e) { seen_any.push_back(e.key); });
  const SubscriptionId only_two = chain.subscribe(
      "counter", "Incremented", "2",
      [&](const Event& e) { seen_two.push_back(e.key); });
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(chain.submit(
        chain.make_transaction(alice, "counter", "increment", {})).ok());
  EXPECT_EQ(seen_any, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(seen_two, (std::vector<std::string>{"2"}));
  chain.unsubscribe(only_two);
  ASSERT_TRUE(chain.submit(
      chain.make_transaction(alice, "counter", "increment", {})).ok());
  EXPECT_EQ(seen_two.size(), 1u);
  EXPECT_EQ(seen_any, (std::vector<std::string>{"1", "2", "3", "4"}));
}

TEST_F(ChainFixture, BlocksHashLink) {
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(chain.submit(
        chain.make_transaction(alice, "counter", "increment", {})).ok());
  EXPECT_EQ(chain.height(), 6u);
  EXPECT_TRUE(chain.verify_integrity());
  for (std::uint64_t h = 1; h < chain.height(); ++h)
    EXPECT_EQ(chain.block(h).height, h);
}

TEST_F(ChainFixture, TransactionInclusionProofs) {
  auto tx = chain.make_transaction(alice, "counter", "increment", {});
  const crypto::Digest digest = tx.digest();
  auto receipt = chain.submit(tx);
  ASSERT_TRUE(receipt.ok());
  const std::uint64_t height = receipt->block_height;

  auto proof = chain.prove_transaction(height, 0);
  ASSERT_TRUE(proof.ok()) << proof.error_message();
  EXPECT_TRUE(Blockchain::verify_transaction_inclusion(chain.block(height),
                                                       digest, *proof));
  // A different digest fails, as does the wrong block.
  crypto::Digest wrong = digest;
  wrong.bytes[0] ^= 1;
  EXPECT_FALSE(Blockchain::verify_transaction_inclusion(chain.block(height),
                                                        wrong, *proof));
  EXPECT_FALSE(Blockchain::verify_transaction_inclusion(chain.block(0),
                                                        digest, *proof));
  EXPECT_FALSE(chain.prove_transaction(height, 5).ok());
  EXPECT_FALSE(chain.prove_transaction(9999, 0).ok());
}

TEST_F(ChainFixture, SeparateAccountsSeparateNonces) {
  ASSERT_TRUE(chain.submit(
      chain.make_transaction(alice, "counter", "increment", {})).ok());
  EXPECT_EQ(chain.nonce(Address::of(alice.public_key())), 1u);
  EXPECT_EQ(chain.nonce(Address::of(bob.public_key())), 0u);
  ASSERT_TRUE(chain.submit(
      chain.make_transaction(bob, "counter", "increment", {})).ok());
  EXPECT_EQ(chain.nonce(Address::of(bob.public_key())), 1u);
}

TEST_F(ChainFixture, ViewDoesNotChargeGas) {
  const Address a = Address::of(alice.public_key());
  const Mist before = chain.balance(a);
  // view() runs with a null sender and charges nothing.
  auto v = chain.view("counter", "increment", {});
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(chain.balance(a), before);
}

TEST(Gas, MatchesPublishedTable2) {
  // The paper's Table II, in SUI (each row must match to 5 decimals).
  const struct {
    std::uint64_t size;
    double total_sui;
    double rebate_sui;
  } kRows[] = {
      {0, 0.01369, 0.00430},     {100, 0.01585, 0.00632},
      {1000, 0.03527, 0.02456},  {5000, 0.12160, 0.10562},
      {10000, 0.22953, 0.20696},
  };
  for (const auto& row : kRows) {
    EXPECT_NEAR(mist_to_sui(submission_cost(row.size)), row.total_sui, 5e-5)
        << "size " << row.size;
    EXPECT_NEAR(mist_to_sui(storage_rebate(row.size)), row.rebate_sui, 5e-5)
        << "size " << row.size;
  }
}

TEST(Address, DerivedFromPublicKey) {
  const auto k1 = crypto::KeyPair::from_seed(1).public_key();
  const auto k2 = crypto::KeyPair::from_seed(2).public_key();
  EXPECT_EQ(Address::of(k1), Address::of(k1));
  EXPECT_NE(Address::of(k1), Address::of(k2));
}

TEST(TransactionDigest, CoversSignature) {
  Blockchain chain;
  const crypto::KeyPair key = crypto::KeyPair::from_seed(55);
  auto tx = chain.make_transaction(key, "c", "f", bytes_of("args"));
  const auto d1 = tx.digest();
  tx.signature.s = crypto::U256(1);
  EXPECT_NE(tx.digest(), d1);
}

}  // namespace
}  // namespace debuglet::chain
