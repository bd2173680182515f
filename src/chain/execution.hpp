// Internal execution machinery shared by chain.cpp (CallContext) and
// parallel.cpp (the batch scheduler). Not part of the public chain API.
//
// Every contract call runs against a TxScratch: an effect buffer layered
// over a GroupView, which is itself an overlay (effects of earlier
// transactions in the same conflict group) over the committed chain state,
// which is frozen for the whole execute phase. Visibility is therefore a
// pure function of the batch contents and the declared access sets —
// never of worker count — which is what makes parallel execution
// bit-identical to serial (docs/CHAIN.md).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/chain.hpp"

namespace debuglet::chain::detail {

/// Buffered effects of one contract call. Nothing here touches the chain
/// until the commit phase applies it (and only for successful calls).
struct TxEffects {
  std::vector<StoredObject> created;        // fresh objects, ids assigned
  std::map<ObjectId, Bytes> object_writes;  // pre-existing objects updated
  std::vector<ObjectId> object_deletes;
  /// Named-state writes by full key; nullopt erases the entry.
  std::map<std::string, std::optional<Bytes>> named_writes;
  /// Balance credits to arbitrary accounts (deletion rebates and
  /// pay_from_escrow payouts). Debits only ever hit the tx sender and are
  /// tracked separately (gas / attached tokens).
  std::map<Address, Mist> credits;
  Mist escrow_out = 0;  // total paid out of this contract's escrow
  std::vector<Event> events;  // sequence + timestamp assigned at commit
  // Storage accounting for the gas charge.
  std::uint64_t bytes_stored = 0;
  std::uint64_t objects_created = 0;
  Mist rebate_accrued = 0;
};

/// Mutable overlay a conflict group maintains while executing its members
/// serially in canonical order. Owned by exactly one worker at a time.
struct GroupView {
  const Blockchain* chain = nullptr;  // committed state, frozen

  std::map<ObjectId, StoredObject> objects;  // created or rewritten
  std::set<ObjectId> deleted;
  std::map<std::string, std::optional<Bytes>> named;  // full key
  struct Delta {
    Mist credit = 0;
    Mist debit = 0;
  };
  std::map<Address, Delta> balance_delta;
  std::map<Address, std::uint64_t> nonce_bump;
  std::map<std::string, Delta> escrow_delta;  // credit = attached in
  /// Memoized committed named-entry lookups — the versioned read path
  /// that keeps hot ExecutorAddressMap reads off the std::map walk.
  mutable std::unordered_map<std::string, const NamedEntry*> named_cache;

  Mist balance_of(const Address& account) const;
  std::uint64_t nonce_of(const Address& account) const;
  Mist escrow_of(const std::string& contract) const;
  /// Committed + overlay named lookup; (entry, erased) — erased wins.
  const Bytes* named_lookup(const std::string& full_key) const;
  /// Committed + overlay object lookup (nullptr if absent/deleted).
  const StoredObject* object_lookup(ObjectId id) const;

  /// Folds a successful call's effects (and its sender debits) in, so
  /// later transactions in this group observe them.
  void absorb(const TxEffects& effects, const Address& sender, Mist gas,
              Mist attached, const std::string& contract, bool success);
};

/// Per-call state a CallContext writes through. `access == nullptr` means
/// legacy exclusive mode (no enforcement); otherwise any touch outside
/// the declared set latches `violated` and the whole call aborts.
struct TxScratch {
  bool view_mode = false;  // buffer then discard; timestamps are live
  GroupView* group = nullptr;
  const AccessSet* access = nullptr;
  ObjectId id_base = 0;  // (height << 32) | (canonical index << 12)
  std::uint32_t id_counter = 0;
  SimTime timestamp = 0;
  bool violated = false;
  std::string violation;
  TxEffects effects;
  std::set<ObjectId> created_ids;  // fresh this call — always accessible
};

/// What one transaction resolved to; produced by the execute phase,
/// consumed (in canonical order) by the commit phase.
struct TxOutcome {
  bool rejected = false;      // failed verification; nothing recorded
  std::string reject_error;   // exact legacy submit() message
  Receipt receipt;            // committed outcome (success or failure)
  bool apply_effects = false; // success only: effects land at commit
  TxEffects effects;
  Address sender;
  Mist gas = 0;       // debit at commit (charged even on failure)
  Mist attached = 0;  // escrowed at commit for successful calls
  std::string contract;
};

/// The digest a block's successor stores as `previous`: the SHA-256 of the
/// header's height, previous digest, transactions root and timestamp.
crypto::Digest header_hash(const Block& block);

/// The Merkle tree a block commits to: one leaf per transaction digest.
crypto::MerkleTree digest_tree(const std::vector<crypto::Digest>& digests);

/// One submit_batch invocation.
struct BatchState {
  Blockchain* chain = nullptr;
  const std::vector<Transaction>* txs = nullptr;
  SimTime timestamp = 0;       // captured once; workers never call now()
  std::uint64_t block_height = 0;
  std::vector<std::uint8_t> sig_ok;  // not vector<bool>: workers write it
  std::vector<Contract*> contract_ptr;  // nullptr = unknown contract
  std::vector<Address> senders;
  std::vector<std::vector<std::size_t>> groups;  // canonical member order
  std::vector<TxOutcome> outcomes;

  void prepare(unsigned workers);  // phase 0: parallel signature checks
  void partition();                // phase 1: union-find conflict groups
  void execute(unsigned workers);  // phase 2: group execution on a pool
  std::vector<Result<Receipt>> commit();  // phase 3: canonical order

  /// Replaces the grouping with one group of the whole batch.
  void single_group();
  /// True when the executed payouts, applied in canonical order, take
  /// some contract's escrow below zero (possible only across groups).
  bool overdraws_escrow() const;
  void execute_group(const std::vector<std::size_t>& members);
  void execute_tx(GroupView& view, std::size_t index);
};

}  // namespace debuglet::chain::detail
