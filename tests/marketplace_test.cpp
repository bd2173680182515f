#include <gtest/gtest.h>

#include <limits>

#include "crypto/box.hpp"
#include "marketplace/contract.hpp"

namespace debuglet::marketplace {
namespace {

using topology::InterfaceKey;

struct MarketFixture : ::testing::Test {
  void SetUp() override {
    auto contract = std::make_unique<MarketplaceContract>();
    market = contract.get();
    ASSERT_TRUE(chain.register_contract(std::move(contract)).ok());
    for (auto* key : {&as1, &as2, &initiator})
      chain.mint(chain::Address::of(key->public_key()), 1'000'000'000'000ULL);
  }

  chain::Receipt must_submit(const crypto::KeyPair& key,
                             const std::string& function, Bytes args,
                             chain::Mist tokens = 0) {
    auto receipt = chain.submit(chain.make_transaction(
        key, kContractName, function, std::move(args), tokens));
    EXPECT_TRUE(receipt.ok()) << receipt.error_message();
    return *receipt;
  }

  void register_executor(const crypto::KeyPair& owner, InterfaceKey key) {
    auto r = must_submit(owner, "RegisterExecutor",
                         RegisterExecutorArgs{key}.serialize());
    ASSERT_TRUE(r.success) << r.error;
  }

  /// Registers each slot as a run of one.
  void register_slots(const crypto::KeyPair& owner, InterfaceKey key,
                      const std::vector<TimeSlot>& slots) {
    RegisterTimeSlotArgs args{key, {}};
    for (const TimeSlot& s : slots) args.runs.push_back(SlotRun{s, 1});
    auto r = must_submit(owner, "RegisterTimeSlot", args.serialize());
    ASSERT_TRUE(r.success) << r.error;
  }

  static TimeSlot slot(SimTime start, SimTime end, chain::Mist price) {
    TimeSlot s;
    s.start = start;
    s.end = end;
    s.price = price;
    return s;
  }

  ApplicationPayload payload(const std::string& tag) const {
    ApplicationPayload p;
    p.bytecode = bytes_of("bytecode-" + tag);
    p.manifest = bytes_of("manifest-" + tag);
    p.parameters = {1, 2, 3};
    p.listen_port = 4500;
    return p;
  }

  chain::Blockchain chain;
  MarketplaceContract* market = nullptr;
  crypto::KeyPair as1 = crypto::KeyPair::from_seed(201);
  crypto::KeyPair as2 = crypto::KeyPair::from_seed(202);
  crypto::KeyPair initiator = crypto::KeyPair::from_seed(203);
  const InterfaceKey key1{1, 2};
  const InterfaceKey key2{2, 1};
};

TEST_F(MarketFixture, RegisterExecutorIdempotentButExclusive) {
  register_executor(as1, key1);
  EXPECT_EQ(market->registered_executors(), 1u);
  // Same owner re-registering is fine.
  auto again = must_submit(as1, "RegisterExecutor",
                           RegisterExecutorArgs{key1}.serialize());
  EXPECT_TRUE(again.success);
  // A different owner claiming the same key is rejected.
  auto steal = must_submit(as2, "RegisterExecutor",
                           RegisterExecutorArgs{key1}.serialize());
  EXPECT_FALSE(steal.success);
}

TEST_F(MarketFixture, RegisterTimeSlotRequiresOwnership) {
  register_executor(as1, key1);
  auto r = must_submit(as2, "RegisterTimeSlot",
                       RegisterTimeSlotArgs{key1, {{slot(0, 100, 5), 1}}}
                           .serialize());
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("own"), std::string::npos);
  // The arguments are checked first: a bad run is reported before the
  // owner, or the registration, is looked up.
  for (const InterfaceKey key : {key1, key2}) {
    auto bad = must_submit(as2, "RegisterTimeSlot",
                           RegisterTimeSlotArgs{key, {{slot(10, 10, 5), 1}}}
                               .serialize());
    EXPECT_FALSE(bad.success);
    EXPECT_EQ(bad.error, "slot with non-positive duration");
  }
}

TEST_F(MarketFixture, RejectsOverlappingAndEmptySlots) {
  register_executor(as1, key1);
  auto bad = must_submit(as1, "RegisterTimeSlot",
                         RegisterTimeSlotArgs{key1, {{slot(10, 10, 5), 1}}}
                             .serialize());
  EXPECT_FALSE(bad.success);
  EXPECT_EQ(bad.error, "slot with non-positive duration");
  register_slots(as1, key1, {slot(0, 100, 5)});
  auto overlap = must_submit(as1, "RegisterTimeSlot",
                             RegisterTimeSlotArgs{key1, {{slot(50, 150, 5), 1}}}
                                 .serialize());
  EXPECT_FALSE(overlap.success);
  EXPECT_EQ(overlap.error, "overlapping time slots for " + key1.to_string());
}

TEST_F(MarketFixture, LookupFindsEarliestCommonWindow) {
  register_executor(as1, key1);
  register_executor(as2, key2);
  register_slots(as1, key1, {slot(0, 100, 5), slot(200, 300, 5)});
  register_slots(as2, key2, {slot(150, 260, 7)});

  LookupSlotArgs query;
  query.client_key = key1;
  query.server_key = key2;
  auto r = must_submit(initiator, "LookupSlot", query.serialize());
  ASSERT_TRUE(r.success) << r.error;
  auto quote = SlotQuote::parse(
      BytesView(r.return_value.data(), r.return_value.size()));
  ASSERT_TRUE(quote.ok());
  ASSERT_TRUE(quote->found);
  EXPECT_EQ(quote->window_start, 200);
  EXPECT_EQ(quote->window_end, 260);
  EXPECT_EQ(quote->total_price, 12u);
}

TEST_F(MarketFixture, LookupHonorsResourcesAndEarliestStart) {
  register_executor(as1, key1);
  register_executor(as2, key2);
  TimeSlot small = slot(0, 100, 5);
  small.cores = 1;
  TimeSlot big = slot(200, 300, 9);
  big.cores = 8;
  register_slots(as1, key1, {small, big});
  TimeSlot server_slot = slot(0, 400, 3);
  server_slot.cores = 8;
  register_slots(as2, key2, {server_slot});

  LookupSlotArgs query;
  query.client_key = key1;
  query.server_key = key2;
  query.cores = 4;  // only `big` qualifies
  auto r = must_submit(initiator, "LookupSlot", query.serialize());
  auto quote = SlotQuote::parse(
      BytesView(r.return_value.data(), r.return_value.size()));
  ASSERT_TRUE(quote->found);
  EXPECT_EQ(quote->window_start, 200);

  LookupSlotArgs late = query;
  late.cores = 1;
  late.earliest_start = 150;
  auto r2 = must_submit(initiator, "LookupSlot", late.serialize());
  auto quote2 = SlotQuote::parse(
      BytesView(r2.return_value.data(), r2.return_value.size()));
  ASSERT_TRUE(quote2->found);
  EXPECT_GE(quote2->window_start, 150);
}

TEST_F(MarketFixture, LookupNotFoundCases) {
  register_executor(as1, key1);
  register_slots(as1, key1, {slot(0, 100, 5)});
  LookupSlotArgs query;
  query.client_key = key1;
  query.server_key = key2;  // never registered
  auto r = must_submit(initiator, "LookupSlot", query.serialize());
  auto quote = SlotQuote::parse(
      BytesView(r.return_value.data(), r.return_value.size()));
  EXPECT_FALSE(quote->found);
}

struct PurchasedFixture : MarketFixture {
  void SetUp() override {
    MarketFixture::SetUp();
    register_executor(as1, key1);
    register_executor(as2, key2);
    register_slots(as1, key1, {slot(1000, 2000, 50)});
    register_slots(as2, key2, {slot(1500, 2500, 70)});
  }

  /// Buys the one common window; a non-empty `seal_key` asks both
  /// executors to seal their results for it (§IV-C private results).
  chain::Receipt purchase(chain::Mist tokens, const Bytes& seal_key = {}) {
    PurchaseSlotArgs args;
    args.client_key = key1;
    args.server_key = key2;
    args.client_slot = slot(1000, 2000, 50);
    args.server_slot = slot(1500, 2500, 70);
    args.client_app = payload("client");
    args.server_app = payload("server");
    args.client_app.seal_output_for = seal_key;
    args.server_app.seal_output_for = seal_key;
    return must_submit(initiator, "PurchaseSlot", args.serialize(), tokens);
  }

  /// Buys the window and has as1 report `result` for its client
  /// application; returns that application's id.
  chain::ObjectId purchase_and_report(const Bytes& result) {
    auto r = purchase(120);
    EXPECT_TRUE(r.success) << r.error;
    auto receipt = PurchaseReceipt::parse(
        BytesView(r.return_value.data(), r.return_value.size()));
    if (!receipt.ok()) return 0;
    ResultReadyArgs args;
    args.application = receipt->client_application;
    args.result = result;
    auto rr = must_submit(as1, "ResultReady", args.serialize());
    EXPECT_TRUE(rr.success) << rr.error;
    return receipt->client_application;
  }

  ResultEntry lookup_result(chain::ObjectId application) {
    auto view = chain.view(kContractName, "LookupResult",
                           LookupResultArgs{application}.serialize());
    if (!view.ok()) {
      ADD_FAILURE() << view.error_message();
      return {};
    }
    auto entry = ResultEntry::parse(BytesView(view->data(), view->size()));
    if (!entry.ok()) {
      ADD_FAILURE() << entry.error_message();
      return {};
    }
    return *entry;
  }
};

TEST_F(PurchasedFixture, SealKeysOutsideTheGroupAreRejected) {
  // 0, 1, p−1, p and 2^256−1: a result sealed for any of them would be
  // readable by anyone (shared secret 0 or ±1, or no group element).
  const crypto::U256& p = crypto::group_prime();
  const crypto::U256 bad_keys[] = {
      crypto::U256(0), crypto::U256(1), crypto::sub(p, crypto::U256(1)), p,
      crypto::sub(crypto::U256(0), crypto::U256(1))};
  const chain::Address buyer = chain::Address::of(initiator.public_key());
  const chain::Address seller1 = chain::Address::of(as1.public_key());
  const chain::Address seller2 = chain::Address::of(as2.public_key());
  for (const crypto::U256& key : bad_keys) {
    const chain::Mist buyer_before = chain.balance(buyer);
    const chain::Mist seller1_before = chain.balance(seller1);
    const chain::Mist seller2_before = chain.balance(seller2);
    const chain::Mist escrow_before = chain.escrow_balance(kContractName);
    const auto calendar1 = market->available_slots(key1);
    const auto calendar2 = market->available_slots(key2);
    auto r = purchase(120, key.to_be_bytes());
    EXPECT_FALSE(r.success) << key.hex();
    EXPECT_EQ(r.error_kind, chain::ErrorKind::kContract) << key.hex();
    EXPECT_EQ(r.error,
              "ApplicationPayload: seal key is not a public key in [2, p-2]")
        << key.hex();
    // Only gas was spent; no token moved and no slot was sold.
    EXPECT_EQ(chain.balance(buyer) + r.gas_charged, buyer_before);
    EXPECT_EQ(chain.balance(seller1), seller1_before);
    EXPECT_EQ(chain.balance(seller2), seller2_before);
    EXPECT_EQ(chain.escrow_balance(kContractName), escrow_before);
    EXPECT_EQ(market->available_slots(key1), calendar1);
    EXPECT_EQ(market->available_slots(key2), calendar2);
    EXPECT_TRUE(market->applications_for(key1, key2).empty());
  }

  // A real key still buys, and a box sealed for it opens; a box whose
  // ephemeral key is one of the bad keys does not.
  auto ok = purchase(120, initiator.public_key().to_bytes());
  ASSERT_TRUE(ok.success) << ok.error;
  const Bytes result = bytes_of("private measurement");
  Bytes sealed = crypto::seal_for(initiator.public_key(),
                                  BytesView(result.data(), result.size()), 7);
  auto opened =
      crypto::open_box(initiator, BytesView(sealed.data(), sealed.size()));
  ASSERT_TRUE(opened.ok()) << opened.error_message();
  EXPECT_EQ(*opened, result);
  for (const crypto::U256& key : bad_keys) {
    const Bytes kb = key.to_be_bytes();
    std::copy(kb.begin(), kb.end(), sealed.begin());
    auto forged =
        crypto::open_box(initiator, BytesView(sealed.data(), sealed.size()));
    EXPECT_EQ(forged.error_message(), "sealed box: bad ephemeral key")
        << key.hex();
  }
}

TEST_F(PurchasedFixture, PurchaseCreatesApplicationsAndEmitsEvents) {
  std::vector<std::string> deployed_keys;
  chain.subscribe(kContractName, kEventDebugletDeployed, "",
                  [&](const chain::Event& e) {
                    deployed_keys.push_back(e.key);
                  });
  auto r = purchase(120);
  ASSERT_TRUE(r.success) << r.error;
  auto receipt = PurchaseReceipt::parse(
      BytesView(r.return_value.data(), r.return_value.size()));
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->window_start, 1500);
  EXPECT_EQ(receipt->window_end, 2000);
  EXPECT_EQ(deployed_keys,
            (std::vector<std::string>{"AS1#2", "AS2#1"}));

  // The application objects live on-chain with the bytecode inside.
  auto obj = chain.read_object(receipt->client_application);
  ASSERT_TRUE(obj.ok());
  auto app = ApplicationObject::parse(BytesView(obj->data(), obj->size()));
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(app->executor_key, key1);
  EXPECT_EQ(app->role, 0);
  EXPECT_EQ(app->embedded_tokens, 50u);
  EXPECT_EQ(string_of(BytesView(app->payload.bytecode.data(),
                                app->payload.bytecode.size())),
            "bytecode-client");

  // The purchased slots are gone.
  EXPECT_TRUE(market->available_slots(key1).empty());
  EXPECT_TRUE(market->available_slots(key2).empty());
  EXPECT_EQ(market->applications_for(key1, key2).size(), 2u);
}

TEST_F(PurchasedFixture, PurchaseRefundsExcessTokens) {
  const chain::Address addr = chain::Address::of(initiator.public_key());
  const chain::Mist before = chain.balance(addr);
  auto r = purchase(500);  // price is 120
  ASSERT_TRUE(r.success);
  // Net spend: gas + 120 (excess 380 refunded).
  EXPECT_EQ(before - chain.balance(addr), r.gas_charged + 120);
  EXPECT_EQ(chain.escrow_balance(kContractName), 120u);
}

TEST_F(PurchasedFixture, PurchaseInsufficientTokensFails) {
  auto r = purchase(100);  // needs 120
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("below slot price"), std::string::npos);
  // Slots remain available.
  EXPECT_EQ(market->available_slots(key1).size(), 1u);
}

TEST_F(PurchasedFixture, DoublePurchaseFails) {
  ASSERT_TRUE(purchase(120).success);
  auto r = purchase(120);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("not available"), std::string::npos);
}

TEST_F(PurchasedFixture, ResultReadyPaysExecutorAndPublishes) {
  auto r = purchase(120);
  ASSERT_TRUE(r.success);
  auto receipt = *PurchaseReceipt::parse(
      BytesView(r.return_value.data(), r.return_value.size()));

  std::vector<std::string> result_events;
  chain.subscribe(kContractName, kEventResultReady,
                  std::to_string(receipt.client_application),
                  [&](const chain::Event& e) {
                    result_events.push_back(e.key);
                  });

  const chain::Address as1_addr = chain::Address::of(as1.public_key());
  const chain::Mist before = chain.balance(as1_addr);
  ResultReadyArgs args;
  args.application = receipt.client_application;
  args.result = bytes_of("certified-result-bytes");
  auto rr = must_submit(as1, "ResultReady", args.serialize());
  ASSERT_TRUE(rr.success) << rr.error;
  // as1 earned the embedded 50 tokens (minus its gas for the call).
  EXPECT_EQ(chain.balance(as1_addr) + rr.gas_charged - before, 50u);
  EXPECT_EQ(result_events.size(), 1u);

  // LookupResult returns the stored result.
  LookupResultArgs lookup;
  lookup.application = receipt.client_application;
  auto view = chain.view(kContractName, "LookupResult", lookup.serialize());
  ASSERT_TRUE(view.ok());
  auto entry = ResultEntry::parse(BytesView(view->data(), view->size()));
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(entry->found);
  EXPECT_EQ(string_of(BytesView(entry->result.data(), entry->result.size())),
            "certified-result-bytes");
  // The result object itself is on-chain.
  EXPECT_TRUE(chain.object_exists(entry->result_object));
}

TEST_F(PurchasedFixture, ResultReadyOnlyByAssignedExecutor) {
  auto r = purchase(120);
  auto receipt = *PurchaseReceipt::parse(
      BytesView(r.return_value.data(), r.return_value.size()));
  ResultReadyArgs args;
  args.application = receipt.client_application;  // assigned to as1
  args.result = bytes_of("forged");
  auto rr = must_submit(as2, "ResultReady", args.serialize());
  EXPECT_FALSE(rr.success);
  EXPECT_NE(rr.error.find("not the executor"), std::string::npos);
}

TEST_F(PurchasedFixture, ResultReadyRejectsDoubleReport) {
  auto r = purchase(120);
  auto receipt = *PurchaseReceipt::parse(
      BytesView(r.return_value.data(), r.return_value.size()));
  ResultReadyArgs args;
  args.application = receipt.client_application;
  args.result = bytes_of("first");
  ASSERT_TRUE(must_submit(as1, "ResultReady", args.serialize()).success);
  args.result = bytes_of("second, revised to look better");
  auto again = must_submit(as1, "ResultReady", args.serialize());
  EXPECT_FALSE(again.success);
  EXPECT_NE(again.error.find("already reported"), std::string::npos);
}

// The certified result lives once, in the result object: ResultReady
// copies it neither into the application object nor into the index.
TEST_F(PurchasedFixture, ResultReadyLeavesTheApplicationAtItsPurchaseSize) {
  auto r = purchase(120);
  ASSERT_TRUE(r.success) << r.error;
  auto receipt = PurchaseReceipt::parse(
      BytesView(r.return_value.data(), r.return_value.size()));
  ASSERT_TRUE(receipt.ok());
  const chain::ObjectId app = receipt->client_application;
  const std::size_t purchased = chain.read_object(app)->size();
  ResultReadyArgs args;
  args.application = app;
  args.result = Bytes(4096, 0xAB);
  ASSERT_TRUE(must_submit(as1, "ResultReady", args.serialize()).success);
  auto reported = chain.read_object(app);
  ASSERT_TRUE(reported.ok());
  EXPECT_EQ(reported->size(), purchased);
  const auto parsed =
      ApplicationObject::parse(BytesView(reported->data(), reported->size()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->reported);
}

TEST_F(PurchasedFixture, ResultIndexHoldsOnlyTheResultObjectId) {
  const chain::ObjectId app = purchase_and_report(Bytes(4096, 0xAB));
  const chain::NamedEntry* index = chain.named_entry(chain::named_access_key(
      kContractName, "result/" + std::to_string(app)));
  ASSERT_NE(index, nullptr);
  EXPECT_LE(index->data.size(), 32u);
  const ResultEntry entry = lookup_result(app);
  ASSERT_TRUE(entry.found);
  EXPECT_EQ(entry.result, Bytes(4096, 0xAB));
}

TEST_F(PurchasedFixture, LookupResultOutlivesReclaim) {
  const chain::ObjectId app =
      purchase_and_report(bytes_of("certified-result-bytes"));
  auto reclaim = must_submit(initiator, "ReclaimApplication",
                             ReclaimApplicationArgs{app}.serialize());
  ASSERT_TRUE(reclaim.success) << reclaim.error;
  EXPECT_FALSE(chain.object_exists(app));
  const ResultEntry entry = lookup_result(app);
  ASSERT_TRUE(entry.found);
  EXPECT_EQ(string_of(BytesView(entry.result.data(), entry.result.size())),
            "certified-result-bytes");
  EXPECT_TRUE(chain.object_exists(entry.result_object));
}

TEST_F(PurchasedFixture, LookupResultUnknownApplication) {
  LookupResultArgs lookup;
  lookup.application = 9999;
  auto view = chain.view(kContractName, "LookupResult", lookup.serialize());
  ASSERT_TRUE(view.ok());
  auto entry = ResultEntry::parse(BytesView(view->data(), view->size()));
  ASSERT_TRUE(entry.ok());
  EXPECT_FALSE(entry->found);
}

TEST_F(MarketFixture, UnknownFunctionRejected) {
  auto r = must_submit(initiator, "Nonsense", {});
  EXPECT_FALSE(r.success);
}

TEST(MarketplaceTypes, AllCodecsRoundTrip) {
  RegisterExecutorArgs re{InterfaceKey{64500, 9}};
  EXPECT_EQ(RegisterExecutorArgs::parse(
                BytesView(re.serialize().data(), re.serialize().size()))
                ->key,
            re.key);

  TimeSlot s;
  s.cores = 4;
  s.memory_bytes = 123456;
  s.bandwidth_bps = 999;
  s.start = -5;
  s.end = 100;
  s.price = 77;
  RegisterTimeSlotArgs rts{InterfaceKey{1, 1}, {{s, 3}, {s, 1}}};
  const Bytes rts_b = rts.serialize();
  auto rts_back = RegisterTimeSlotArgs::parse(
      BytesView(rts_b.data(), rts_b.size()));
  ASSERT_TRUE(rts_back.ok());
  EXPECT_EQ(rts_back->key, rts.key);
  EXPECT_EQ(rts_back->runs, rts.runs);

  ApplicationPayload p;
  p.bytecode = bytes_of("code");
  p.manifest = bytes_of("manifest");
  p.parameters = {-1, 0, 42};
  p.listen_port = 40123;
  const Bytes pb = p.serialize();
  auto p_back = ApplicationPayload::parse(BytesView(pb.data(), pb.size()));
  ASSERT_TRUE(p_back.ok());
  EXPECT_EQ(p_back->parameters, p.parameters);
  EXPECT_EQ(p_back->listen_port, 40123);

  ApplicationObject obj;
  obj.executor_key = InterfaceKey{3, 4};
  obj.role = 1;
  obj.window_start = 10;
  obj.window_end = 20;
  obj.embedded_tokens = 5;
  obj.payload = p;
  const Bytes ob = obj.serialize();
  auto obj_back = ApplicationObject::parse(BytesView(ob.data(), ob.size()));
  ASSERT_TRUE(obj_back.ok());
  EXPECT_EQ(obj_back->executor_key, obj.executor_key);
  EXPECT_EQ(obj_back->embedded_tokens, 5u);

  // The reserved trailing blob must stay empty.
  BytesWriter filled;
  filled.raw(BytesView(ob.data(), ob.size() - 1));
  filled.blob(bytes_of("x"));
  const Bytes fb = filled.take();
  EXPECT_FALSE(ApplicationObject::parse(BytesView(fb.data(), fb.size())).ok());

  // Truncation fails cleanly for every codec.
  EXPECT_FALSE(ApplicationObject::parse(BytesView(ob.data(), 3)).ok());
  EXPECT_FALSE(RegisterTimeSlotArgs::parse(BytesView(rts_b.data(), 5)).ok());
}

TEST(MarketplaceTypes, RegisterTimeSlotArgsRejectBadRuns) {
  const InterfaceKey key{1, 1};
  TimeSlot s;
  s.start = 0;
  s.end = 20;
  auto parse = [](const Bytes& b) {
    return RegisterTimeSlotArgs::parse(BytesView(b.data(), b.size()));
  };
  auto error_of = [&](std::vector<SlotRun> runs) {
    return parse(RegisterTimeSlotArgs{key, std::move(runs)}.serialize())
        .error_message();
  };
  // 65,536 slots in one run or in several pass; one more does not.
  EXPECT_EQ(error_of({{s, 65'536}}), "");
  TimeSlot later = s;
  later.start = 65'536 * 20;
  later.end = later.start + 20;
  EXPECT_EQ(error_of({{s, 65'536}, {later, 1}}),
            "RegisterTimeSlot: too many slots");
  EXPECT_EQ(error_of({{s, 65'537}}), "RegisterTimeSlot: too many slots");
  EXPECT_EQ(error_of({{s, 0}}), "empty slot run");
  TimeSlot flat = s;
  flat.end = flat.start;
  EXPECT_EQ(error_of({{s, 1}, {flat, 1}}), "slot with non-positive duration");
  TimeSlot last = s;
  last.start = std::numeric_limits<SimTime>::max() - 40;
  last.end = last.start + 20;
  EXPECT_EQ(error_of({{last, 2}}), "");
  EXPECT_EQ(error_of({{last, 3}}), "slot run ends past the time range");

  // A run count the bytes cannot back fails on the missing bytes; parse
  // reserves room only for runs the remaining bytes could hold.
  BytesWriter w;
  write_key(w, key);
  w.varint(65'536);
  write_run(w, SlotRun{s, 1});
  const Bytes short_of_runs = w.take();
  EXPECT_FALSE(parse(short_of_runs).ok());
  Bytes trailing = RegisterTimeSlotArgs{key, {{s, 1}}}.serialize();
  trailing.push_back(0);
  EXPECT_EQ(parse(trailing).error_message(),
            "RegisterTimeSlot: trailing bytes");
}

TEST_F(PurchasedFixture, WindowsThatHaveEndedAreNotSold) {
  // The common window is [1500, 2000): still for sale while under way,
  // not once the block time reaches its end.
  chain.set_clock([] { return SimTime{2000}; });
  auto late = purchase(120);
  EXPECT_FALSE(late.success);
  EXPECT_EQ(late.error_kind, chain::ErrorKind::kContract);
  EXPECT_EQ(late.error, "slot window ended at 2000");
  EXPECT_EQ(market->available_slots(key1).size(), 1u);
  EXPECT_EQ(market->available_slots(key2).size(), 1u);
  chain.set_clock([] { return SimTime{1999}; });
  auto under_way = purchase(120);
  EXPECT_TRUE(under_way.success) << under_way.error;
  EXPECT_TRUE(market->available_slots(key1).empty());
}

}  // namespace
}  // namespace debuglet::marketplace
