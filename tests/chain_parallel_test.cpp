// Serial-vs-parallel differential tests for Blockchain::submit_batch.
//
// The determinism contract (docs/CHAIN.md): every observable of a batch —
// receipts (including error kinds), the event log and dispatch order,
// object contents and versions, named state, balances, nonces, escrow and
// the sealed block — is a pure function of the batch contents and the
// declared access sets, NOT of the worker count. These tests run the same
// signed workload on fresh chains at 1/2/4/8 workers and compare a full
// rendering of all observables line by line, mirroring the
// vm_differential_test.cpp pattern.
//
// Workloads cover the interesting mix: conflicting and disjoint writes,
// bad signatures and bad nonces (rejected, nonce unconsumed), out-of-gas,
// access violations, contract failures, cross-group escrow overdraws, and
// the marketplace purchase race from the paper (many initiators racing for
// overlapping slots — exactly one winner per slot).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chain/chain.hpp"
#include "marketplace/contract.hpp"
#include "marketplace/reputation.hpp"
#include "util/rng.hpp"

namespace debuglet::chain {
namespace {

using topology::InterfaceKey;

// --- A promiscuous test contract ---------------------------------------------
//
// One dispatch over every CallContext capability, so random workloads
// exercise named state, objects, events and escrow together. Stateless,
// as submit_batch requires.
class KvContract : public Contract {
 public:
  std::string name() const override { return "kv"; }

  Result<Bytes> call(CallContext& ctx, const std::string& function,
                     BytesView arguments) override {
    BytesReader r(arguments);
    if (function == "put") {
      auto key = r.str();
      auto value = r.blob();
      if (!key || !value) return fail("kv: bad put args");
      if (auto s = ctx.write_named(*key, *value); !s) return s.error();
      ctx.emit_event("Put", *key, {});
      return Bytes{};
    }
    if (function == "get") {
      auto key = r.str();
      if (!key) return fail("kv: bad get args");
      BytesWriter w;
      if (ctx.has_named(*key)) {
        auto value = ctx.read_named(*key);
        if (!value) return value.error();
        w.u8(1);
        w.blob(BytesView(value->data(), value->size()));
      } else {
        w.u8(0);
      }
      return w.take();
    }
    if (function == "del") {
      auto key = r.str();
      if (!key) return fail("kv: bad del args");
      if (auto s = ctx.erase_named(*key); !s) return s.error();
      ctx.emit_event("Del", *key, {});
      return Bytes{};
    }
    if (function == "mkobj") {
      auto data = r.blob();
      if (!data) return fail("kv: bad mkobj args");
      auto id = ctx.create_object(std::move(*data));
      if (!id) return id.error();
      BytesWriter w;
      w.u64(*id);
      return w.take();
    }
    if (function == "wobj") {
      auto id = r.u64();
      auto data = r.blob();
      if (!id || !data) return fail("kv: bad wobj args");
      if (auto s = ctx.write_object(*id, std::move(*data)); !s)
        return s.error();
      return Bytes{};
    }
    if (function == "dobj") {
      auto id = r.u64();
      if (!id) return fail("kv: bad dobj args");
      if (auto s = ctx.delete_object(*id); !s) return s.error();
      return Bytes{};
    }
    if (function == "pay") {
      auto to = r.raw(32);
      auto amount = r.u64();
      if (!to || !amount) return fail("kv: bad pay args");
      Address dest;
      std::copy(to->begin(), to->end(), dest.digest.bytes.begin());
      if (auto s = ctx.pay_from_escrow(dest, *amount); !s) return s.error();
      return Bytes{};
    }
    if (function == "boom") return fail("kv: deliberate failure");
    return fail("kv: unknown function '" + function + "'");
  }
};

std::string kv_key(const std::string& key) {
  return named_access_key("kv", key);
}

// --- Snapshot: a full rendering of every chain observable --------------------

struct Snapshot {
  std::vector<std::string> lines;
};

std::string render_receipt(const Result<Receipt>& r) {
  if (!r) return "reject: " + r.error_message();
  std::string s = r->success ? "ok" : "fail";
  s += " kind=";
  s += error_kind_name(r->error_kind);
  s += " err=" + r->error;
  s += " ret=" + to_hex(BytesView(r->return_value.data(),
                                  r->return_value.size()));
  s += " gas=" + std::to_string(r->gas_charged);
  s += " rebate=" + std::to_string(r->storage_rebate_accrued);
  s += " height=" + std::to_string(r->block_height);
  s += " digest=" + r->transaction_digest.hex();
  return s;
}

struct Actor {
  std::string label;
  crypto::KeyPair key;
  Address address;
  Mist mint = 0;

  Actor(std::string l, std::uint64_t seed, Mist m)
      : label(std::move(l)),
        key(crypto::KeyPair::from_seed(seed)),
        address(Address::of(crypto::KeyPair::from_seed(seed).public_key())),
        mint(m) {}
};

Snapshot capture(const Blockchain& chain,
                 const std::vector<std::vector<Result<Receipt>>>& batches,
                 const std::vector<Actor>& actors,
                 const std::vector<std::string>& dispatched) {
  Snapshot snap;
  auto add = [&](std::string line) { snap.lines.push_back(std::move(line)); };
  for (std::size_t b = 0; b < batches.size(); ++b)
    for (std::size_t i = 0; i < batches[b].size(); ++i)
      add("receipt[" + std::to_string(b) + "][" + std::to_string(i) +
          "]: " + render_receipt(batches[b][i]));
  for (std::size_t i = 0; i < dispatched.size(); ++i)
    add("dispatched[" + std::to_string(i) + "]: " + dispatched[i]);
  for (const auto& [id, obj] : chain.objects())
    add("object[" + std::to_string(id) + "]: owner=" + obj.owner.hex() +
        " v" + std::to_string(obj.version) + " rebate=" +
        std::to_string(obj.rebate_credit) + " data=" +
        to_hex(BytesView(obj.data.data(), obj.data.size())));
  for (const auto& [key, entry] : chain.named_state())
    add("named[" + key + "]: v" + std::to_string(entry.version) + " data=" +
        to_hex(BytesView(entry.data.data(), entry.data.size())));
  for (const auto& actor : actors)
    add("account[" + actor.label +
        "]: balance=" + std::to_string(chain.balance(actor.address)) +
        " nonce=" + std::to_string(chain.nonce(actor.address)));
  add("escrow[kv]: " + std::to_string(chain.escrow_balance("kv")));
  add("escrow[market]: " +
      std::to_string(chain.escrow_balance(marketplace::kContractName)));
  add("height: " + std::to_string(chain.height()));
  for (std::uint64_t h = 0; h < chain.height(); ++h) {
    const Block& block = chain.block(h);
    add("block[" + std::to_string(h) + "]: prev=" + block.previous.hex() +
        " root=" + block.transactions_root.hex() + " txs=" +
        std::to_string(block.transaction_digests.size()) +
        " t=" + std::to_string(block.timestamp));
  }
  add(std::string("integrity: ") + (chain.verify_integrity() ? "ok" : "BAD"));
  return snap;
}

// Compares snapshots line by line; reports the first divergence.
void expect_same_snapshots(const std::vector<unsigned>& workers,
                           const std::vector<Snapshot>& snaps) {
  ASSERT_EQ(workers.size(), snaps.size());
  for (std::size_t w = 1; w < snaps.size(); ++w) {
    const Snapshot& a = snaps[0];
    const Snapshot& b = snaps[w];
    const std::string where = "workers=" + std::to_string(workers[0]) +
                              " vs workers=" + std::to_string(workers[w]);
    ASSERT_EQ(a.lines.size(), b.lines.size()) << where;
    for (std::size_t i = 0; i < a.lines.size(); ++i)
      ASSERT_EQ(a.lines[i], b.lines[i]) << where << " diverges at line " << i;
  }
}

// --- Workload: pre-signed batches replayed onto fresh chains -----------------

struct Workload {
  std::vector<Actor> actors;
  // Each inner vector is one submit_batch call; all but the last are
  // "setup" and run before the measured batch. Transactions are signed
  // once (signing is deterministic) and replayed verbatim on every chain.
  std::vector<std::vector<Transaction>> batches;
  bool with_marketplace = false;
  bool with_reputation = false;
};

struct RunResult {
  Snapshot snap;
  std::vector<std::vector<Result<Receipt>>> results;
};

RunResult run_workload(const Workload& w, unsigned workers) {
  Blockchain chain;
  if (w.with_marketplace) {
    auto contract = std::make_unique<marketplace::MarketplaceContract>();
    EXPECT_TRUE(chain.register_contract(std::move(contract)).ok());
  }
  if (w.with_reputation) {
    auto contract = std::make_unique<marketplace::ReputationContract>();
    EXPECT_TRUE(chain.register_contract(std::move(contract)).ok());
  }
  EXPECT_TRUE(chain.register_contract(std::make_unique<KvContract>()).ok());
  for (const auto& actor : w.actors) chain.mint(actor.address, actor.mint);

  // Record every event each contract here emits, in the order it is
  // dispatched to subscribers, with its sequence number, payload and
  // timestamp: all of it must match at any worker count.
  std::vector<std::string> dispatched;
  const auto record = [&](const Event& e) {
    dispatched.push_back(
        "seq=" + std::to_string(e.sequence) + " " + e.contract + " " +
        e.name + " " + e.key + " " +
        to_hex(BytesView(e.payload.data(), e.payload.size())) +
        " t=" + std::to_string(e.timestamp));
  };
  const std::pair<const char*, const char*> kEvents[] = {
      {"kv", "Put"},
      {"kv", "Del"},
      {marketplace::kContractName, marketplace::kEventExecutorRegistered},
      {marketplace::kContractName, marketplace::kEventDebugletDeployed},
      {marketplace::kContractName, marketplace::kEventResultReady},
      {marketplace::kReputationContractName,
       marketplace::kEventReputationStrike},
  };
  for (const auto& [contract, name] : kEvents)
    chain.subscribe(contract, name, "", record);

  RunResult out;
  for (const auto& batch : w.batches)
    out.results.push_back(chain.submit_batch(batch, BatchOptions{workers}));
  out.snap = capture(chain, out.results, w.actors, dispatched);
  return out;
}

// Object ids are a pure function of (block height, canonical index,
// per-call counter) — the tests rely on this to pre-compute ids of
// objects created by earlier batches. The genesis block holds height 0,
// so a fresh chain's first batch seals at height 1.
ObjectId object_id_at(std::uint64_t height, std::uint64_t index,
                      std::uint64_t counter) {
  return (height << 32) | (index << 12) | counter;
}
constexpr std::uint64_t kFirstBatchHeight = 1;

const std::vector<unsigned> kWorkerCounts = {1, 2, 4, 8};

// Runs a workload at every worker count and checks bit-identity; returns
// the reference (workers=1) run for semantic assertions.
RunResult differential(const Workload& w) {
  std::vector<Snapshot> snaps;
  std::vector<RunResult> runs;
  for (unsigned workers : kWorkerCounts) {
    runs.push_back(run_workload(w, workers));
    snaps.push_back(runs.back().snap);
  }
  expect_same_snapshots(kWorkerCounts, snaps);
  return runs.front();
}

// --- Transaction builders ----------------------------------------------------

// A chain used purely to build+sign transactions (make_transaction_with_
// nonce reads no chain state; signing is deterministic).
Blockchain& builder() {
  static Blockchain b;
  return b;
}

constexpr Mist kDefaultBudget = 1'000'000'000;

Transaction kv_put(const Actor& a, std::uint64_t nonce, const std::string& key,
                   const Bytes& value, bool declare = true,
                   Mist attached = 0, Mist budget = kDefaultBudget) {
  BytesWriter w;
  w.str(key);
  w.blob(BytesView(value.data(), value.size()));
  AccessSet access;
  if (declare)
    access.add_write(kv_key(key));
  else
    access.add_read(kv_key("decoy"));  // declared mode, wrong key
  return builder().make_transaction_with_nonce(a.key, nonce, "kv", "put",
                                               w.take(), attached, budget,
                                               std::move(access));
}

Transaction kv_get(const Actor& a, std::uint64_t nonce,
                   const std::string& key) {
  BytesWriter w;
  w.str(key);
  AccessSet access;
  access.add_read(kv_key(key));
  return builder().make_transaction_with_nonce(a.key, nonce, "kv", "get",
                                               w.take(), 0, kDefaultBudget,
                                               std::move(access));
}

Transaction kv_del(const Actor& a, std::uint64_t nonce,
                   const std::string& key) {
  BytesWriter w;
  w.str(key);
  AccessSet access;
  access.add_write(kv_key(key));
  return builder().make_transaction_with_nonce(a.key, nonce, "kv", "del",
                                               w.take(), 0, kDefaultBudget,
                                               std::move(access));
}

Transaction kv_mkobj(const Actor& a, std::uint64_t nonce, const Bytes& data) {
  BytesWriter w;
  w.blob(BytesView(data.data(), data.size()));
  AccessSet access;
  access.add_read(kv_key("mkobj"));  // created objects need no declaration
  return builder().make_transaction_with_nonce(a.key, nonce, "kv", "mkobj",
                                               w.take(), 0, kDefaultBudget,
                                               std::move(access));
}

Transaction kv_wobj(const Actor& a, std::uint64_t nonce, ObjectId id,
                    const Bytes& data, bool declare = true) {
  BytesWriter w;
  w.u64(id);
  w.blob(BytesView(data.data(), data.size()));
  AccessSet access;
  if (declare)
    access.add_write(object_access_key(id));
  else
    access.add_read(kv_key("decoy"));
  return builder().make_transaction_with_nonce(a.key, nonce, "kv", "wobj",
                                               w.take(), 0, kDefaultBudget,
                                               std::move(access));
}

Transaction kv_dobj(const Actor& a, std::uint64_t nonce, ObjectId id) {
  BytesWriter w;
  w.u64(id);
  AccessSet access;
  access.add_write(object_access_key(id));
  return builder().make_transaction_with_nonce(a.key, nonce, "kv", "dobj",
                                               w.take(), 0, kDefaultBudget,
                                               std::move(access));
}

Transaction kv_pay(const Actor& a, std::uint64_t nonce, const Address& to,
                   Mist amount, Mist attached) {
  BytesWriter w;
  w.raw(to.digest.view());
  w.u64(amount);
  // Escrow is commutative (not a conflict key); declare an arbitrary read
  // so the transaction opts into declared mode without serializing.
  AccessSet access;
  access.add_read(kv_key("escrow-meter"));
  return builder().make_transaction_with_nonce(a.key, nonce, "kv", "pay",
                                               w.take(), attached,
                                               kDefaultBudget,
                                               std::move(access));
}

Transaction kv_boom(const Actor& a, std::uint64_t nonce) {
  AccessSet access;
  access.add_read(kv_key("decoy"));
  return builder().make_transaction_with_nonce(a.key, nonce, "kv", "boom",
                                               Bytes{}, 0, kDefaultBudget,
                                               std::move(access));
}

// --- Random KV workloads -----------------------------------------------------

Workload random_kv_workload(std::uint64_t seed, bool disjoint) {
  Rng rng(seed);
  Workload w;
  const int kActors = 6;
  for (int i = 0; i < kActors; ++i)
    w.actors.emplace_back("actor" + std::to_string(i), 9000 + seed * 100 + i,
                          1'000'000'000'000ULL);
  w.actors.emplace_back("mallory", 9900 + seed, 1'000'000'000'000ULL);
  Actor& mallory = w.actors.back();

  // Setup block 0: pre-create one object per actor (ids predictable) and
  // fund the kv escrow so "pay" has a pot to fight over.
  std::vector<Transaction> setup;
  std::vector<ObjectId> objects;
  for (int i = 0; i < kActors; ++i) {
    objects.push_back(object_id_at(kFirstBatchHeight, setup.size(), 0));
    setup.push_back(kv_mkobj(w.actors[i], 0, bytes_of("obj" + std::to_string(i))));
  }
  setup.push_back(kv_put(mallory, 0, "escrow-funding", bytes_of("x"),
                         /*declare=*/true, /*attached=*/1000));
  w.batches.push_back(std::move(setup));

  // The measured batch: a random mix of conflicting/disjoint writes,
  // object traffic, failures, rejections and escrow payments.
  std::vector<std::uint64_t> nonces(kActors, 1);
  std::uint64_t mallory_nonce = 1;
  std::vector<Transaction> batch;
  const int kTxs = 48;
  for (int t = 0; t < kTxs; ++t) {
    const int who = static_cast<int>(rng.next_below(kActors));
    Actor& a = w.actors[static_cast<std::size_t>(who)];
    std::uint64_t& nonce = nonces[static_cast<std::size_t>(who)];
    // Disjoint workloads give every sender a private keyspace; conflicting
    // workloads share a small pool so groups actually merge.
    const std::string key =
        disjoint ? "s" + std::to_string(who) + "-k" +
                       std::to_string(rng.next_below(4))
                 : "k" + std::to_string(rng.next_below(8));
    const ObjectId obj = objects[rng.next_below(objects.size())];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 28) {
      batch.push_back(kv_put(a, nonce++, key,
                             bytes_of("v" + std::to_string(t))));
    } else if (roll < 42) {
      batch.push_back(kv_get(a, nonce++, key));
    } else if (roll < 50) {
      batch.push_back(kv_del(a, nonce++, key));
    } else if (roll < 58) {
      batch.push_back(kv_wobj(a, nonce++, obj,
                              bytes_of("w" + std::to_string(t))));
    } else if (roll < 63) {
      batch.push_back(kv_dobj(a, nonce++, obj));
    } else if (roll < 70) {
      batch.push_back(kv_mkobj(a, nonce++, bytes_of("m" + std::to_string(t))));
    } else if (roll < 77) {
      // Undeclared write: aborts with kAccessViolation, state untouched.
      batch.push_back(kv_put(a, nonce++, key, bytes_of("viol"),
                             /*declare=*/false));
    } else if (roll < 82) {
      batch.push_back(kv_boom(a, nonce++));
    } else if (roll < 88) {
      // Escrow payments: deltas race for the committed pot; losers get a
      // deterministic kContract failure.
      const Mist attached = rng.next_below(3) == 0 ? 200 : 0;
      const Mist amount = rng.next_below(400);
      const Actor& to = w.actors[rng.next_below(w.actors.size())];
      batch.push_back(kv_pay(a, nonce++, to.address, amount, attached));
    } else if (roll < 93) {
      // Out of gas: budget below the flat computation fee; committed as a
      // failed receipt charging the full budget.
      batch.push_back(kv_put(a, nonce++, key, bytes_of("oog"),
                             /*declare=*/true, 0, /*budget=*/1000));
    } else if (roll < 97) {
      // Tampered signature: rejected, nonce unconsumed (so mallory's later
      // transactions still verify — use a throwaway nonce).
      Transaction bad = kv_put(mallory, mallory_nonce, key, bytes_of("sig"));
      bad.arguments.push_back(0xFF);
      batch.push_back(std::move(bad));
    } else {
      // Wrong nonce: rejected before execution.
      batch.push_back(kv_put(mallory, mallory_nonce + 7, key,
                             bytes_of("nonce")));
    }
  }
  w.batches.push_back(std::move(batch));
  return w;
}

TEST(ChainParallelDifferential, ConflictingKvWorkloadsBitIdentical) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto run = differential(random_kv_workload(seed, /*disjoint=*/false));
    // Sanity: the workload actually commits work.
    int committed = 0;
    for (const auto& r : run.results.back())
      if (r.ok()) ++committed;
    EXPECT_GT(committed, 20) << "seed " << seed;
  }
}

TEST(ChainParallelDifferential, DisjointKvWorkloadsBitIdentical) {
  for (std::uint64_t seed : {7u, 8u}) {
    auto run = differential(random_kv_workload(seed, /*disjoint=*/true));
    int successes = 0;
    for (const auto& r : run.results.back())
      if (r.ok() && r->success) ++successes;
    EXPECT_GT(successes, 10) << "seed " << seed;
  }
}

// A hand-built batch hitting every outcome class exactly where expected,
// so the differential tests can't silently lose coverage to a shifted
// random distribution.
TEST(ChainParallelDifferential, EveryOutcomeClassAgreesAcrossWorkers) {
  Workload w;
  for (int i = 0; i < 8; ++i)
    w.actors.emplace_back("a" + std::to_string(i), 7100 + i,
                          1'000'000'000'000ULL);
  // Setup: one object for a5, and escrow funded with exactly 100 MIST so
  // two 80-MIST payouts race for it.
  std::vector<Transaction> setup;
  const ObjectId obj = object_id_at(kFirstBatchHeight, 0, 0);
  setup.push_back(kv_mkobj(w.actors[5], 0, bytes_of("payload")));
  setup.push_back(kv_put(w.actors[4], 0, "seed-escrow", bytes_of("x"),
                         true, /*attached=*/100));
  w.batches.push_back(std::move(setup));

  std::vector<Transaction> batch;
  batch.push_back(kv_put(w.actors[0], 0, "shared", bytes_of("first")));   // 0 ok
  batch.push_back(kv_put(w.actors[1], 0, "shared", bytes_of("second")));  // 1 ok
  batch.push_back(kv_put(w.actors[2], 0, "x", bytes_of("v"),
                         /*declare=*/false));                             // 2 violation
  batch.push_back(kv_boom(w.actors[3], 0));                               // 3 contract error
  batch.push_back(kv_put(w.actors[4], 1, "y", bytes_of("v"), true, 0,
                         /*budget=*/1000));                               // 4 out of gas
  Transaction bad_sig = kv_put(w.actors[0], 1, "z", bytes_of("v"));
  bad_sig.attached_tokens += 1;  // signature no longer covers the tx
  batch.push_back(std::move(bad_sig));                                    // 5 rejected
  batch.push_back(kv_put(w.actors[1], 5, "z", bytes_of("v")));            // 6 bad nonce
  batch.push_back(kv_wobj(w.actors[5], 1, obj, bytes_of("updated")));     // 7 ok
  batch.push_back(kv_dobj(w.actors[5], 2, obj));                          // 8 ok (same group as 7)
  // Escrow race from two otherwise-idle senders: their only conflict keys
  // are their own accounts, so they land in different groups. Both see the
  // committed 100 MIST at execution, which together overdraws it, so the
  // batch executes again as one group and the canonical-second payout
  // fails in the contract.
  batch.push_back(kv_pay(w.actors[6], 0, w.actors[2].address, 80, 0));    // 9 ok
  batch.push_back(kv_pay(w.actors[7], 0, w.actors[3].address, 80, 0));    // 10 overdraw
  w.batches.push_back(std::move(batch));

  auto run = differential(w);
  const auto& results = run.results.back();
  ASSERT_EQ(results.size(), 11u);
  auto expect_kind = [&](std::size_t i, ErrorKind kind) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].error_message();
    if (kind == ErrorKind::kNone) {
      EXPECT_TRUE(results[i]->success) << i << ": " << results[i]->error;
    } else {
      EXPECT_FALSE(results[i]->success) << i;
      EXPECT_EQ(results[i]->error_kind, kind) << i << ": " << results[i]->error;
    }
  };
  expect_kind(0, ErrorKind::kNone);
  expect_kind(1, ErrorKind::kNone);
  expect_kind(2, ErrorKind::kAccessViolation);
  EXPECT_NE(results[2]->error.find("access violation"), std::string::npos);
  expect_kind(3, ErrorKind::kContract);
  expect_kind(4, ErrorKind::kOutOfGas);
  EXPECT_EQ(results[4]->gas_charged, 1000u);
  ASSERT_FALSE(results[5].ok());
  EXPECT_NE(results[5].error_message().find("signature"), std::string::npos);
  ASSERT_FALSE(results[6].ok());
  EXPECT_NE(results[6].error_message().find("nonce"), std::string::npos);
  expect_kind(7, ErrorKind::kNone);
  expect_kind(8, ErrorKind::kNone);
  expect_kind(9, ErrorKind::kNone);
  expect_kind(10, ErrorKind::kContract);
  EXPECT_EQ(results[10]->error,
            "contract escrow underfunded: have 20, need 80");
}

// A payout that overdraws the escrow across groups must not fund the rest
// of its group: B's deposit attaches the 80 MIST B's own payout credited
// it, which only exists if that payout commits.
TEST(ChainParallelDifferential, OverdrawnPayoutFundsNothingLaterInItsGroup) {
  Workload w;
  w.actors.emplace_back("a", 7200, 1'000'000'000'000ULL);
  w.actors.emplace_back("b", 7201, 1'000'000'000'000ULL);
  w.actors.emplace_back("c", 7202, 0);
  w.actors.emplace_back("funder", 7203, 1'000'000'000'000ULL);
  const Actor& a = w.actors[0];
  const Actor& b = w.actors[1];
  const Actor& c = w.actors[2];
  w.batches.push_back({kv_put(w.actors[3], 0, "seed-escrow", bytes_of("x"),
                              true, /*attached=*/100)});

  // B's balance once its payout is credited, less the deposit's budget.
  const Mist b_after_payout = b.mint - kComputationFee + 80;
  w.batches.push_back({
      kv_pay(a, 0, c.address, 80, 0),
      kv_pay(b, 0, b.address, 80, 0),
      kv_put(b, 1, "deposit", bytes_of("v"), true,
             /*attached=*/b_after_payout - kComputationFee,
             /*budget=*/kComputationFee),
  });

  auto run = differential(w);
  const auto& results = run.results.back();
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_TRUE(results[0]->success) << results[0]->error;
  ASSERT_TRUE(results[1].ok());
  EXPECT_FALSE(results[1]->success);
  EXPECT_EQ(results[1]->error_kind, ErrorKind::kContract);
  ASSERT_FALSE(results[2].ok()) << "the deposit spends tokens B never got";
  EXPECT_NE(results[2].error_message().find("insufficient balance"),
            std::string::npos)
      << results[2].error_message();

  const auto has_line = [&](const std::string& line) {
    return std::find(run.snap.lines.begin(), run.snap.lines.end(), line) !=
           run.snap.lines.end();
  };
  EXPECT_TRUE(has_line("account[b]: balance=" +
                       std::to_string(b.mint - kComputationFee) +
                       " nonce=1"));
  EXPECT_TRUE(has_line("account[c]: balance=80 nonce=0"));
  EXPECT_TRUE(has_line("escrow[kv]: 20"));
}

// Mixing one legacy (empty access set) transaction into a declared batch
// serializes the whole batch — and must still be bit-identical at any
// worker count.
TEST(ChainParallelDifferential, ExclusiveModeTransactionsSerializeSafely) {
  Workload w;
  for (int i = 0; i < 4; ++i)
    w.actors.emplace_back("e" + std::to_string(i), 7300 + i,
                          1'000'000'000'000ULL);
  std::vector<Transaction> batch;
  batch.push_back(kv_put(w.actors[0], 0, "a", bytes_of("1")));
  // Legacy transaction: no declared set, exclusive over the whole batch.
  batch.push_back(builder().make_transaction_with_nonce(
      w.actors[1].key, 0, "kv", "put", [] {
        BytesWriter bw;
        bw.str("b");
        bw.blob(BytesView());
        return bw.take();
      }()));
  batch.push_back(kv_put(w.actors[2], 0, "c", bytes_of("3")));
  batch.push_back(kv_put(w.actors[3], 0, "a", bytes_of("4")));
  w.batches.push_back(std::move(batch));
  auto run = differential(w);
  for (const auto& r : run.results.back()) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->success) << r->error;
  }
}

// --- Marketplace purchase races ---------------------------------------------

marketplace::TimeSlot make_slot(SimTime start, SimTime end, Mist price) {
  marketplace::TimeSlot s;
  s.start = start;
  s.end = end;
  s.price = price;
  return s;
}

marketplace::ApplicationPayload make_payload(const std::string& tag) {
  marketplace::ApplicationPayload p;
  p.bytecode = bytes_of("bytecode-" + tag);
  p.manifest = bytes_of("manifest-" + tag);
  p.parameters = {1, 2, 3};
  p.listen_port = 4500;
  return p;
}

Transaction purchase_tx(const Actor& initiator, std::uint64_t nonce,
                        InterfaceKey client_key, InterfaceKey server_key,
                        const marketplace::TimeSlot& client_slot,
                        const marketplace::TimeSlot& server_slot,
                        Mist attached, const std::string& tag) {
  marketplace::PurchaseSlotArgs args;
  args.client_key = client_key;
  args.server_key = server_key;
  args.client_slot = client_slot;
  args.server_slot = server_slot;
  args.client_app = make_payload(tag + "-client");
  args.server_app = make_payload(tag + "-server");
  return builder().make_transaction_with_nonce(
      initiator.key, nonce, marketplace::kContractName, "PurchaseSlot",
      args.serialize(), attached, kDefaultBudget,
      marketplace::access_purchase_slot(client_key, server_key));
}

// The mass-purchase acceptance scenario: kPairs executor pairs each offer
// ONE overlapping slot window; kInitiators race for them (kInitiators /
// kPairs contenders per pair). Exactly one purchase per pair may win; no
// tokens may be lost or double-spent; and the entire outcome must be
// bit-identical at every worker count.
struct MassPurchase {
  static constexpr int kPairs = 6;
  static constexpr int kInitiators = 180;
  static constexpr Mist kPrice = 500'000'000;  // per slot; pair = 2x

  Workload workload;
  std::vector<Actor*> executors;   // 2 per pair: client then server
  std::vector<Actor*> initiators;
  std::vector<InterfaceKey> keys;  // 2 per pair

  MassPurchase() {
    Workload& w = workload;
    w.with_marketplace = true;
    for (int p = 0; p < kPairs; ++p)
      for (int side = 0; side < 2; ++side)
        w.actors.emplace_back(
            "exec" + std::to_string(p) + (side == 0 ? "c" : "s"),
            7500 + p * 2 + side, 1'000'000'000'000ULL);
    for (int j = 0; j < kInitiators; ++j)
      w.actors.emplace_back("init" + std::to_string(j), 8000 + j,
                            100'000'000'000ULL);
    for (int i = 0; i < kPairs * 2; ++i) {
      executors.push_back(&w.actors[static_cast<std::size_t>(i)]);
      keys.push_back(InterfaceKey{static_cast<topology::AsNumber>(100 + i), 1});
    }
    for (int j = 0; j < kInitiators; ++j)
      initiators.push_back(&w.actors[static_cast<std::size_t>(kPairs * 2 + j)]);

    // Setup: every executor registers itself and its single slot (batch
    // of declared, conflict-free transactions — setup parallelizes too).
    std::vector<Transaction> setup;
    for (int i = 0; i < kPairs * 2; ++i) {
      marketplace::RegisterExecutorArgs reg{keys[static_cast<std::size_t>(i)]};
      setup.push_back(builder().make_transaction_with_nonce(
          executors[static_cast<std::size_t>(i)]->key, 0,
          marketplace::kContractName, "RegisterExecutor", reg.serialize(), 0,
          kDefaultBudget,
          marketplace::access_register_executor(
              keys[static_cast<std::size_t>(i)])));
    }
    for (int i = 0; i < kPairs * 2; ++i) {
      marketplace::RegisterTimeSlotArgs slots{
          keys[static_cast<std::size_t>(i)],
          {{make_slot(1000, 2000, kPrice), 1}}};
      setup.push_back(builder().make_transaction_with_nonce(
          executors[static_cast<std::size_t>(i)]->key, 1,
          marketplace::kContractName, "RegisterTimeSlot", slots.serialize(),
          0, kDefaultBudget,
          marketplace::access_register_time_slot(
              keys[static_cast<std::size_t>(i)])));
    }
    workload.batches.push_back(std::move(setup));

    // The race: initiator j targets pair j % kPairs with the exact price.
    std::vector<Transaction> race;
    for (int j = 0; j < kInitiators; ++j) {
      const int p = j % kPairs;
      race.push_back(purchase_tx(
          *initiators[static_cast<std::size_t>(j)], 0,
          keys[static_cast<std::size_t>(2 * p)],
          keys[static_cast<std::size_t>(2 * p + 1)],
          make_slot(1000, 2000, kPrice), make_slot(1000, 2000, kPrice),
          2 * kPrice, "i" + std::to_string(j)));
    }
    workload.batches.push_back(std::move(race));
  }
};

TEST(ChainParallelAcceptance, MassPurchaseOneWinnerPerSlot) {
  MassPurchase scenario;
  auto run = differential(scenario.workload);

  const auto& race = run.results.back();
  ASSERT_EQ(race.size(),
            static_cast<std::size_t>(MassPurchase::kInitiators));
  std::vector<int> winners(MassPurchase::kPairs, 0);
  for (int j = 0; j < MassPurchase::kInitiators; ++j) {
    const auto& r = race[static_cast<std::size_t>(j)];
    ASSERT_TRUE(r.ok()) << j << ": " << r.error_message();
    if (r->success) {
      ++winners[static_cast<std::size_t>(j % MassPurchase::kPairs)];
      // Winners hold two application objects with the tokens embedded.
      auto receipt = marketplace::PurchaseReceipt::parse(
          BytesView(r->return_value.data(), r->return_value.size()));
      ASSERT_TRUE(receipt.ok());
      EXPECT_NE(receipt->client_application, 0u);
      EXPECT_NE(receipt->server_application, 0u);
    } else {
      EXPECT_NE(r->error.find("not available"), std::string::npos)
          << j << ": " << r->error;
    }
  }
  for (int p = 0; p < MassPurchase::kPairs; ++p)
    EXPECT_EQ(winners[static_cast<std::size_t>(p)], 1) << "pair " << p;

  // Token conservation on the reference chain: everything minted is still
  // accounted for as balances + contract escrow + burned gas.
  Blockchain chain;
  {
    auto contract = std::make_unique<marketplace::MarketplaceContract>();
    auto* market = contract.get();
    ASSERT_TRUE(chain.register_contract(std::move(contract)).ok());
    ASSERT_TRUE(chain.register_contract(std::make_unique<KvContract>()).ok());
    Mist minted = 0;
    for (const auto& actor : scenario.workload.actors) {
      chain.mint(actor.address, actor.mint);
      minted += actor.mint;
    }
    Mist burned = 0;
    for (const auto& batch : scenario.workload.batches)
      for (const auto& r : chain.submit_batch(batch, BatchOptions{4}))
        if (r.ok()) burned += r->gas_charged;
    Mist held = 0;
    for (const auto& actor : scenario.workload.actors)
      held += chain.balance(actor.address);
    held += chain.escrow_balance(marketplace::kContractName);
    held += chain.escrow_balance("kv");
    EXPECT_EQ(minted, held + burned);
    // Each pair's escrow holds exactly one winning purchase (2x price) —
    // no double-spend slipped through.
    EXPECT_EQ(chain.escrow_balance(marketplace::kContractName),
              static_cast<Mist>(MassPurchase::kPairs) * 2 *
                  MassPurchase::kPrice);
    // All slots are sold out.
    for (const auto key : scenario.keys)
      EXPECT_TRUE(market->available_slots(key).empty());
  }
}

// After the race, every winning pair's executor reports results — all
// ResultReady transactions touch distinct application objects and run in
// parallel; payouts drain the escrow deterministically.
TEST(ChainParallelAcceptance, ResultReadyFanOutBitIdentical) {
  MassPurchase scenario;

  // Harvest the winning application ids from a reference run (object ids
  // are worker-invariant, so these transactions replay on every chain).
  auto reference = run_workload(scenario.workload, 1);
  std::vector<Transaction> reports;
  for (int j = 0; j < MassPurchase::kInitiators; ++j) {
    const auto& r = reference.results.back()[static_cast<std::size_t>(j)];
    ASSERT_TRUE(r.ok());
    if (!r->success) continue;
    auto receipt = marketplace::PurchaseReceipt::parse(
        BytesView(r->return_value.data(), r->return_value.size()));
    ASSERT_TRUE(receipt.ok());
    const int p = j % MassPurchase::kPairs;
    const auto apps = {std::pair{2 * p, receipt->client_application},
                       std::pair{2 * p + 1, receipt->server_application}};
    for (const auto& [exec_index, app_id] : apps) {
      marketplace::ResultReadyArgs args;
      args.application = app_id;
      args.result = bytes_of("result-" + std::to_string(app_id));
      reports.push_back(builder().make_transaction_with_nonce(
          scenario.executors[static_cast<std::size_t>(exec_index)]->key, 2,
          marketplace::kContractName, "ResultReady", args.serialize(), 0,
          kDefaultBudget, marketplace::access_result_ready(app_id)));
    }
  }
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(MassPurchase::kPairs * 2));
  scenario.workload.batches.push_back(std::move(reports));

  auto run = differential(scenario.workload);
  for (const auto& r : run.results.back()) {
    ASSERT_TRUE(r.ok()) << r.error_message();
    EXPECT_TRUE(r->success) << r->error;
  }
}

// Random mixed marketplace traffic: contested and uncontested purchases
// shuffled together with lookups — the general-case differential.
TEST(ChainParallelDifferential, MixedMarketplaceTrafficBitIdentical) {
  Rng rng(0x5EED);
  Workload w;
  w.with_marketplace = true;
  const int kPairs = 4;
  for (int p = 0; p < kPairs * 2; ++p)
    w.actors.emplace_back("x" + std::to_string(p), 7700 + p,
                          1'000'000'000'000ULL);
  const int kInitiators = 12;
  for (int j = 0; j < kInitiators; ++j)
    w.actors.emplace_back("i" + std::to_string(j), 7800 + j,
                          100'000'000'000ULL);

  std::vector<InterfaceKey> keys;
  std::vector<Transaction> setup;
  for (int i = 0; i < kPairs * 2; ++i) {
    keys.push_back(InterfaceKey{static_cast<topology::AsNumber>(200 + i), 1});
    marketplace::RegisterExecutorArgs reg{keys.back()};
    setup.push_back(builder().make_transaction_with_nonce(
        w.actors[static_cast<std::size_t>(i)].key, 0,
        marketplace::kContractName, "RegisterExecutor", reg.serialize(), 0,
        kDefaultBudget, marketplace::access_register_executor(keys.back())));
  }
  for (int i = 0; i < kPairs * 2; ++i) {
    // Two slots per executor: contested traffic exhausts at most one.
    marketplace::RegisterTimeSlotArgs slots{
        keys[static_cast<std::size_t>(i)],
        {{make_slot(1000, 2000, 100), 1},
         {make_slot(3000, 4000, 100), 1}}};
    setup.push_back(builder().make_transaction_with_nonce(
        w.actors[static_cast<std::size_t>(i)].key, 1,
        marketplace::kContractName, "RegisterTimeSlot", slots.serialize(), 0,
        kDefaultBudget,
        marketplace::access_register_time_slot(
            keys[static_cast<std::size_t>(i)])));
  }
  w.batches.push_back(std::move(setup));

  std::vector<Transaction> batch;
  for (int j = 0; j < kInitiators; ++j) {
    Actor& init = w.actors[static_cast<std::size_t>(kPairs * 2 + j)];
    // Half the initiators pile onto pair 0; the rest spread out.
    const int p = rng.chance(0.5) ? 0 : static_cast<int>(rng.next_below(kPairs));
    const bool early = rng.chance(0.7);
    const auto slot = early ? make_slot(1000, 2000, 100)
                            : make_slot(3000, 4000, 100);
    // Overpay sometimes: the excess must come back as an escrow refund.
    const Mist attached = 200 + (rng.chance(0.3) ? 57 : 0);
    batch.push_back(purchase_tx(init, 0,
                                keys[static_cast<std::size_t>(2 * p)],
                                keys[static_cast<std::size_t>(2 * p + 1)],
                                slot, slot, attached,
                                "mix" + std::to_string(j)));
  }
  w.batches.push_back(std::move(batch));

  auto run = differential(w);
  int ok = 0, sold_out = 0;
  for (const auto& r : run.results.back()) {
    ASSERT_TRUE(r.ok());
    if (r->success)
      ++ok;
    else {
      EXPECT_NE(r->error.find("not available"), std::string::npos)
          << r->error;
      ++sold_out;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(sold_out, 0);  // the contested pair genuinely sells out
}

// --- Reputation accountability ----------------------------------------------

Transaction report_tx(const Actor& reporter, std::uint64_t nonce,
                      topology::AsNumber asn, std::uint32_t confidence) {
  marketplace::ReportArgs args;
  args.asn = asn;
  args.confidence_permille = confidence;
  args.rounds_used = 12;
  args.detail = "twin-probe evidence";
  return builder().make_transaction_with_nonce(
      reporter.key, nonce, marketplace::kReputationContractName, "Report",
      args.serialize(), 0, kDefaultBudget,
      marketplace::access_report(asn, reporter.address));
}

// Strike reports mix contention (everyone accuses one AS — serialized on
// its record key), disjoint accusations (parallelize) and duplicates
// (deduped per reporter, in-batch and across batches). The strike counts,
// dedup decisions and event order must be bit-identical at any worker
// count.
TEST(ChainParallelDifferential, ReputationReportsBitIdentical) {
  Workload w;
  w.with_reputation = true;
  const int kReporters = 6;
  for (int i = 0; i < kReporters; ++i)
    w.actors.emplace_back("rep" + std::to_string(i), 8600 + i,
                          1'000'000'000'000ULL);

  // Batch 1: every reporter accuses AS 30 (contested) and its own AS 40+i
  // (disjoint); reporter 0 files AS 30 twice — the repeat must dedup.
  std::vector<Transaction> first;
  for (int i = 0; i < kReporters; ++i) {
    const auto& reporter = w.actors[static_cast<std::size_t>(i)];
    first.push_back(report_tx(reporter, 0, 30,
                              800 + static_cast<std::uint32_t>(i)));
    first.push_back(report_tx(reporter, 1,
                              static_cast<topology::AsNumber>(40 + i), 900));
  }
  first.push_back(report_tx(w.actors[0], 2, 30, 990));
  w.batches.push_back(std::move(first));

  // Batch 2: everyone re-reports AS 30 (all dedup — strikes must not
  // move) and reporter 1 re-reports its own AS.
  std::vector<Transaction> second;
  for (int i = 0; i < kReporters; ++i)
    second.push_back(report_tx(w.actors[static_cast<std::size_t>(i)],
                               i == 0 ? 3 : 2, 30, 500));
  second.push_back(report_tx(w.actors[1], 3, 41, 400));
  w.batches.push_back(std::move(second));

  auto run = differential(w);
  for (const auto& batch : run.results)
    for (const auto& r : batch) {
      ASSERT_TRUE(r.ok()) << r.error_message();
      EXPECT_TRUE(r->success) << r->error;
    }

  // Every batch-2 report against AS 30 is a duplicate: each returns the
  // record frozen at 6 distinct strikes, with the audit trail still
  // counting and the best confidence retained.
  auto record = marketplace::ReputationRecord::parse(BytesView(
      run.results[1][0]->return_value.data(),
      run.results[1][0]->return_value.size()));
  ASSERT_TRUE(record.ok()) << record.error_message();
  EXPECT_EQ(record->strikes, 6u);
  EXPECT_GE(record->reports, 8u);
  EXPECT_EQ(record->max_confidence_permille, 990u);

  // The disjoint AS: one strike from its single reporter, dedup held.
  auto own = marketplace::ReputationRecord::parse(BytesView(
      run.results[1].back()->return_value.data(),
      run.results[1].back()->return_value.size()));
  ASSERT_TRUE(own.ok()) << own.error_message();
  EXPECT_EQ(own->strikes, 1u);
  EXPECT_EQ(own->reports, 2u);
}

// The accountability loop closed on chain: strikes against an executor's
// AS discount its quoted and charged price. The quote reads the strike
// records cross-contract, an underpayer at the penalized price minus one
// fails, and the exact penalized payment wins the slot — bit-identical at
// every worker count.
TEST(ChainParallelAcceptance, ReputationPenalizedPurchaseBitIdentical) {
  Workload w;
  w.with_marketplace = true;
  w.with_reputation = true;
  w.actors.emplace_back("execC", 8700, 1'000'000'000'000ULL);
  w.actors.emplace_back("execS", 8701, 1'000'000'000'000ULL);
  for (int i = 0; i < 3; ++i)
    w.actors.emplace_back("acc" + std::to_string(i), 8710 + i,
                          1'000'000'000'000ULL);
  w.actors.emplace_back("cheap", 8720, 100'000'000'000ULL);
  w.actors.emplace_back("buyer", 8721, 100'000'000'000ULL);
  const Actor& cheap = w.actors[w.actors.size() - 2];
  const Actor& buyer = w.actors.back();
  const InterfaceKey client_key{300, 1};
  const InterfaceKey server_key{301, 1};
  constexpr Mist kPrice = 1'000'000;

  // Setup: register the pair and one slot each; three distinct reporters
  // strike the client executor's AS (3 strikes = 30% off that side).
  std::vector<Transaction> setup;
  const std::array<InterfaceKey, 2> pair = {client_key, server_key};
  for (int side = 0; side < 2; ++side) {
    const Actor& exec = w.actors[static_cast<std::size_t>(side)];
    marketplace::RegisterExecutorArgs reg{pair[static_cast<std::size_t>(side)]};
    setup.push_back(builder().make_transaction_with_nonce(
        exec.key, 0, marketplace::kContractName, "RegisterExecutor",
        reg.serialize(), 0, kDefaultBudget,
        marketplace::access_register_executor(
            pair[static_cast<std::size_t>(side)])));
    marketplace::RegisterTimeSlotArgs slots{
        pair[static_cast<std::size_t>(side)],
        {{make_slot(1000, 2000, kPrice), 1}}};
    setup.push_back(builder().make_transaction_with_nonce(
        exec.key, 1, marketplace::kContractName, "RegisterTimeSlot",
        slots.serialize(), 0, kDefaultBudget,
        marketplace::access_register_time_slot(
            pair[static_cast<std::size_t>(side)])));
  }
  for (int i = 0; i < 3; ++i)
    setup.push_back(report_tx(w.actors[static_cast<std::size_t>(2 + i)], 0,
                              client_key.asn, 950));
  w.batches.push_back(std::move(setup));

  const Mist penalized =
      marketplace::apply_reputation_penalty(kPrice, 3) + kPrice;
  ASSERT_LT(penalized, 2 * kPrice);

  // The measured batch: a quote, an underpayment at penalized-minus-one
  // (must lose), then the exact penalized payment (must win).
  std::vector<Transaction> batch;
  marketplace::LookupSlotArgs look;
  look.client_key = client_key;
  look.server_key = server_key;
  batch.push_back(builder().make_transaction_with_nonce(
      buyer.key, 0, marketplace::kContractName, "LookupSlot",
      look.serialize(), 0, kDefaultBudget,
      marketplace::access_lookup_slot(client_key, server_key)));
  batch.push_back(purchase_tx(cheap, 0, client_key, server_key,
                              make_slot(1000, 2000, kPrice),
                              make_slot(1000, 2000, kPrice), penalized - 1,
                              "under"));
  batch.push_back(purchase_tx(buyer, 1, client_key, server_key,
                              make_slot(1000, 2000, kPrice),
                              make_slot(1000, 2000, kPrice), penalized,
                              "exact"));
  w.batches.push_back(std::move(batch));

  auto run = differential(w);
  const auto& results = run.results.back();
  ASSERT_EQ(results.size(), 3u);

  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[0]->success) << results[0]->error;
  auto quote = marketplace::SlotQuote::parse(BytesView(
      results[0]->return_value.data(), results[0]->return_value.size()));
  ASSERT_TRUE(quote.ok()) << quote.error_message();
  EXPECT_TRUE(quote->found);
  EXPECT_EQ(quote->client_strikes, 3u);
  EXPECT_EQ(quote->server_strikes, 0u);
  EXPECT_EQ(quote->list_price, 2 * kPrice);
  EXPECT_EQ(quote->total_price, penalized);

  ASSERT_TRUE(results[1].ok());
  EXPECT_FALSE(results[1]->success)
      << "one MIST under the penalized price must not win";
  ASSERT_TRUE(results[2].ok());
  EXPECT_TRUE(results[2]->success) << results[2]->error;
}

}  // namespace
}  // namespace debuglet::chain
