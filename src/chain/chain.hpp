// A deterministic single-finalizer blockchain with parallel owned-object
// transaction execution.
//
// This is the repo's substitute for the Sui blockchain the paper deploys
// its Move contract on (DESIGN.md §2). It keeps the properties the
// evaluation relies on: signed transactions with account nonces, instant
// (sub-second) finality, an object store whose creation cost and deletion
// rebate follow Table II's gas schedule, hash-linked blocks over Merkle
// roots of transactions (so published results are tamper-evident), and
// events dispatched to subscribers at commit (executors subscribe to
// deployment events, initiators to result events — paper §IV-C). The
// chain stores no events: only subscribers registered when an event
// commits see it.
//
// Contracts are native C++ objects registered by name; their entry points
// receive a CallContext granting access to objects, named contract state,
// events and escrowed token transfers. Every contract call executes
// against a buffered effect set: nothing touches committed state until the
// call succeeds, so a failed or aborted call leaves the chain untouched.
//
// Transactions may declare the state keys they touch (chain/access.hpp);
// submit_batch partitions a block of declared transactions into
// conflict-free groups and executes the groups on a worker pool, then
// commits every effect in canonical (submission) order — receipts, events,
// gas, balances and object versions are bit-identical at any worker count
// (docs/CHAIN.md spells out the determinism contract).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/access.hpp"
#include "chain/gas.hpp"
#include "crypto/merkle.hpp"
#include "crypto/schnorr.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace debuglet::chain {

/// An account address: SHA-256 of the account's public key.
struct Address {
  crypto::Digest digest;
  auto operator<=>(const Address&) const = default;
  std::string hex() const { return digest.hex(); }

  static Address of(const crypto::PublicKey& pk);
};

using ObjectId = std::uint64_t;

/// A stored object. `version` starts at 1 and bumps on every
/// write_object — one of the observables the parallel scheduler must keep
/// bit-identical to serial execution.
struct StoredObject {
  ObjectId id = 0;
  Address owner;          // account credited with the rebate on deletion
  Bytes data;
  Mist rebate_credit = 0; // refunded to `owner` when deleted
  std::uint64_t version = 1;
};

/// A named contract-state entry (the marketplace's ExecutorAddressMap /
/// ExecutionSlotsMap live here). Versioned like objects.
struct NamedEntry {
  std::uint64_t version = 1;
  Bytes data;
};

/// An event emitted by a contract call.
struct Event {
  std::uint64_t sequence = 0;
  std::string contract;
  std::string name;
  std::string key;   // subscription filter key (e.g. "AS3#2", object id)
  Bytes payload;
  SimTime timestamp = 0;
};

/// A signed transaction. `access` declares the read/write sets the call
/// may touch (empty = legacy exclusive mode, see chain/access.hpp); it is
/// covered by the signature.
struct Transaction {
  crypto::PublicKey sender;
  std::uint64_t nonce = 0;
  std::string contract;
  std::string function;
  Bytes arguments;
  Mist attached_tokens = 0;  // moved to the contract escrow before the call
  Mist gas_budget = 0;
  AccessSet access;
  crypto::Signature signature;

  /// Canonical bytes covered by the signature (everything but it).
  Bytes signing_bytes() const;
  crypto::Digest digest() const;
};

/// A sealed block (a batch seals one block for all its transactions).
struct Block {
  std::uint64_t height = 0;
  crypto::Digest previous;
  crypto::Digest transactions_root;
  SimTime timestamp = 0;
  std::vector<crypto::Digest> transaction_digests;
};

/// Why a committed receipt carries success=false.
enum class ErrorKind : std::uint8_t {
  kNone = 0,
  kContract,         // the contract returned an error
  kAccessViolation,  // touched a key outside the declared access set
  kOutOfGas,         // computed gas exceeded the transaction's budget
};

const char* error_kind_name(ErrorKind kind);

/// Receipt returned for every executed transaction.
struct Receipt {
  bool success = false;
  std::string error;        // set when !success (the tx is still recorded)
  ErrorKind error_kind = ErrorKind::kNone;
  Bytes return_value;       // contract return data on success
  Mist gas_charged = 0;
  Mist storage_rebate_accrued = 0;  // future rebate from objects created
  std::uint64_t block_height = 0;
  crypto::Digest transaction_digest;
};

class Blockchain;

namespace detail {
struct TxScratch;   // per-call buffered effects (chain/execution.hpp)
struct BatchState;  // one submit_batch invocation
}  // namespace detail

/// The authority a contract call executes with. All mutations land in a
/// per-call effect buffer; the chain commits them only when the call
/// succeeds (and, in a batch, in canonical order on the commit thread) —
/// contract code therefore never touches shared state from a worker.
class CallContext {
 public:
  const Address& sender() const { return sender_; }
  Mist attached_tokens() const { return attached_; }
  SimTime timestamp() const;

  /// Creates an object owned by the transaction sender; storage is charged
  /// to the sender and the rebate accrues to them. Object ids are a pure
  /// function of (block height, canonical tx index, per-call counter), so
  /// they are identical at any worker count. Created objects are always
  /// accessible to the creating call, declared or not.
  Result<ObjectId> create_object(Bytes data);

  Result<Bytes> read_object(ObjectId id) const;

  /// The account that created (and is rebated for) an object.
  Result<Address> object_owner(ObjectId id) const;

  /// Overwrites an object's data in place, bumping its version. The
  /// storage rebate stays as fixed at creation; no additional storage is
  /// charged (marketplace state updates are small relative to creation).
  Status write_object(ObjectId id, Bytes data);

  /// Deletes an object; its rebate is credited to its owner's balance.
  Status delete_object(ObjectId id);

  /// Named contract state, keyed within this contract's namespace (the
  /// full conflict key is "<contract>/<key>", see chain/access.hpp).
  bool has_named(const std::string& key) const;
  Result<Bytes> read_named(const std::string& key) const;
  Status write_named(const std::string& key, Bytes data);
  Status erase_named(const std::string& key);

  /// Read-only view into ANOTHER contract's named state (conflict key
  /// "<contract>/<key>", which a declared access set must list as a
  /// read). The global named store is shared, so this works whether or
  /// not the other contract is registered — a missing key simply reads as
  /// absent. Writes stay namespace-confined by design: cross-contract
  /// coupling is observation, never mutation.
  Result<Bytes> read_named_of(const std::string& contract,
                              const std::string& key) const;

  /// Emits an event to subscribers (dispatched at commit time, in
  /// canonical order, with its sequence number and timestamp).
  void emit_event(std::string name, std::string key, Bytes payload);

  /// Pays tokens out of the contract's escrow balance. Escrow moves are
  /// commutative deltas, not conflict keys; a batch whose groups together
  /// overdraw the escrow executes again as one group.
  Status pay_from_escrow(const Address& to, Mist amount);

 private:
  friend class Blockchain;
  friend struct detail::BatchState;
  CallContext(Blockchain& chain, std::string contract, Address sender,
              Mist attached, detail::TxScratch* scratch)
      : chain_(chain),
        contract_(std::move(contract)),
        sender_(std::move(sender)),
        attached_(attached),
        scratch_(scratch) {}

  Blockchain& chain_;
  std::string contract_;
  Address sender_;
  Mist attached_;
  detail::TxScratch* scratch_;  // owned by the caller (submit/view)
};

/// A native contract: dispatches function calls.
class Contract {
 public:
  virtual ~Contract() = default;
  virtual std::string name() const = 0;
  /// Executes `function` with serialized `arguments`; returns serialized
  /// return data, or an error. All CallContext effects are buffered: an
  /// error (or an access violation) aborts the call and commits nothing.
  /// Contract member state, if any, must not be mutated by call() —
  /// conflict-free calls run concurrently; keep state in named entries
  /// and objects instead.
  virtual Result<Bytes> call(CallContext& context, const std::string& function,
                             BytesView arguments) = 0;
  /// Invoked once at registration with the owning chain — contracts that
  /// expose read-only inspection helpers keep the pointer.
  virtual void attach(Blockchain&) {}
};

/// Event subscription callback.
using EventCallback = std::function<void(const Event&)>;
using SubscriptionId = std::uint64_t;

/// Finality latency per transaction (Sui: <0.5 s, paper §V-B). The chain
/// executes synchronously; orchestration code adds this to simulated
/// schedules.
inline constexpr SimDuration kFinalityLatency = duration::milliseconds(400);

/// Batch execution knobs.
struct BatchOptions {
  /// Worker threads for the execute phase. 1 = serial (no threads
  /// spawned). Results are bit-identical at any value by construction.
  unsigned workers = 1;
};

/// The chain itself.
class Blockchain {
 public:
  Blockchain();

  /// Registers a contract instance under its name().
  Status register_contract(std::unique_ptr<Contract> contract);

  /// Credits an account (genesis/faucet; scenarios fund participants).
  void mint(const Address& account, Mist amount);

  Mist balance(const Address& account) const;
  std::uint64_t nonce(const Address& account) const;

  /// Builds and signs a transaction for `key` with the correct next nonce.
  /// `access` opts into declared (parallelizable) mode — see
  /// chain/access.hpp; the default empty set is legacy exclusive mode.
  Transaction make_transaction(const crypto::KeyPair& key,
                               std::string contract, std::string function,
                               Bytes arguments, Mist attached_tokens = 0,
                               Mist gas_budget = 1'000'000'000,
                               AccessSet access = {});

  /// Like make_transaction but with an explicit nonce — required when
  /// building several transactions from one sender for a single batch.
  Transaction make_transaction_with_nonce(
      const crypto::KeyPair& key, std::uint64_t nonce, std::string contract,
      std::string function, Bytes arguments, Mist attached_tokens = 0,
      Mist gas_budget = 1'000'000'000, AccessSet access = {});

  /// Verifies, executes and commits a transaction (instant finality).
  /// Verification failures (bad signature, wrong nonce, insufficient
  /// funds) fail the Result; contract-level failures produce a committed
  /// receipt with success=false. Equivalent to a one-transaction batch.
  Result<Receipt> submit(const Transaction& tx);

  /// Verifies, executes and commits a block of transactions. Signature
  /// checks and conflict-free groups run on `options.workers` threads;
  /// effects commit in submission order into ONE sealed block. The i-th
  /// result corresponds to the i-th transaction; a failed Result is a
  /// rejected transaction (not recorded, nonce unconsumed) exactly as for
  /// submit(). Observables are identical at every worker count.
  std::vector<Result<Receipt>> submit_batch(
      const std::vector<Transaction>& txs, const BatchOptions& options = {});

  /// Read-only contract call: no gas; all buffered effects are discarded,
  /// so views can never mutate chain state.
  Result<Bytes> view(const std::string& contract, const std::string& function,
                     BytesView arguments);

  /// Subscribes to events of (contract, name); empty key matches all keys.
  SubscriptionId subscribe(std::string contract, std::string name,
                           std::string key, EventCallback callback);
  void unsubscribe(SubscriptionId id);

  // --- Inspection ------------------------------------------------------
  std::uint64_t height() const { return blocks_.size(); }
  const Block& block(std::uint64_t height) const { return blocks_.at(height); }
  /// Recomputes every hash link and Merkle root; false if tampered.
  bool verify_integrity() const;

  /// Merkle inclusion proof of a transaction digest within its block —
  /// what a light verifier needs alongside the block header chain.
  Result<crypto::MerkleProof> prove_transaction(std::uint64_t height,
                                                std::size_t index) const;

  /// Verifies an inclusion proof against a block's transactions root.
  static bool verify_transaction_inclusion(const Block& block,
                                           const crypto::Digest& tx_digest,
                                           const crypto::MerkleProof& proof);
  Result<Bytes> read_object(ObjectId id) const;
  bool object_exists(ObjectId id) const { return objects_.contains(id); }
  const std::map<ObjectId, StoredObject>& objects() const { return objects_; }
  Mist escrow_balance(const std::string& contract) const;

  /// Committed named contract state, by full key "<contract>/<key>".
  const std::map<std::string, NamedEntry>& named_state() const {
    return named_;
  }
  /// Reads one committed named entry (nullptr if absent). Used by
  /// contracts' read-only inspection helpers; consensus code goes through
  /// CallContext.
  const NamedEntry* named_entry(const std::string& full_key) const;

  /// Sets the clock used to timestamp blocks/events (wired to the
  /// simulation queue by scenarios; defaults to a constant 0).
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }
  SimTime now() const { return clock_ ? clock_() : 0; }

 private:
  friend class CallContext;
  friend struct detail::BatchState;

  std::map<std::string, std::unique_ptr<Contract>> contracts_;
  std::map<Address, Mist> balances_;
  std::map<Address, std::uint64_t> nonces_;
  std::map<std::string, Mist> escrow_;
  std::map<ObjectId, StoredObject> objects_;
  std::map<std::string, NamedEntry> named_;
  std::vector<Block> blocks_;
  std::uint64_t next_event_seq_ = 0;
  struct Subscription {
    std::string contract;
    std::string name;
    std::string key;
    EventCallback callback;
  };
  std::map<SubscriptionId, Subscription> subscriptions_;
  SubscriptionId next_subscription_ = 1;
  std::function<SimTime()> clock_;
  // Observability handles cached at construction (no-ops while disabled).
  struct ObsHandles {
    obs::Counter* tx_submitted = nullptr;
    obs::Counter* tx_rejected = nullptr;  // failed verification, not recorded
    obs::Counter* tx_failed = nullptr;    // committed with success=false
    obs::Counter* access_violations = nullptr;
    obs::Counter* batches = nullptr;
    obs::Histogram* gas_charged = nullptr;
    obs::Histogram* block_build_ms = nullptr;  // wall time to seal a block
    obs::Histogram* event_fanout = nullptr;    // subscribers hit per event
    obs::Histogram* batch_groups = nullptr;    // conflict groups per batch
    obs::Histogram* batch_group_size = nullptr;
    obs::Gauge* objects = nullptr;
    obs::Gauge* object_bytes = nullptr;
  };
  ObsHandles obs_;
  std::uint64_t object_bytes_total_ = 0;
};

}  // namespace debuglet::chain
