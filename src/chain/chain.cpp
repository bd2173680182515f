#include "chain/chain.hpp"

#include <algorithm>

#include "chain/execution.hpp"
#include "obs/trace.hpp"

namespace debuglet::chain {

Address Address::of(const crypto::PublicKey& pk) {
  const Bytes b = pk.to_bytes();
  return Address{crypto::sha256(BytesView(b.data(), b.size()))};
}

Bytes Transaction::signing_bytes() const {
  BytesWriter w;
  const Bytes pk = sender.to_bytes();
  w.raw(BytesView(pk.data(), pk.size()));
  w.u64(nonce);
  w.str(contract);
  w.str(function);
  w.blob(BytesView(arguments.data(), arguments.size()));
  w.u64(attached_tokens);
  w.u64(gas_budget);
  access.write_to(w);
  return w.take();
}

crypto::Digest Transaction::digest() const {
  BytesWriter w;
  const Bytes body = signing_bytes();
  w.raw(BytesView(body.data(), body.size()));
  const Bytes sig = signature.to_bytes();
  w.raw(BytesView(sig.data(), sig.size()));
  return crypto::sha256(BytesView(w.bytes().data(), w.bytes().size()));
}

const char* error_kind_name(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kNone:
      return "none";
    case ErrorKind::kContract:
      return "contract";
    case ErrorKind::kAccessViolation:
      return "access_violation";
    case ErrorKind::kOutOfGas:
      return "out_of_gas";
  }
  return "unknown";
}

// --- GroupView -----------------------------------------------------------

namespace detail {

Mist GroupView::balance_of(const Address& account) const {
  Mist base = chain->balance(account);
  auto it = balance_delta.find(account);
  if (it == balance_delta.end()) return base;
  return base + it->second.credit - it->second.debit;
}

std::uint64_t GroupView::nonce_of(const Address& account) const {
  std::uint64_t base = chain->nonce(account);
  auto it = nonce_bump.find(account);
  return it == nonce_bump.end() ? base : base + it->second;
}

Mist GroupView::escrow_of(const std::string& contract) const {
  Mist base = chain->escrow_balance(contract);
  auto it = escrow_delta.find(contract);
  if (it == escrow_delta.end()) return base;
  return base + it->second.credit - it->second.debit;
}

const Bytes* GroupView::named_lookup(const std::string& full_key) const {
  auto it = named.find(full_key);
  if (it != named.end()) return it->second ? &*it->second : nullptr;
  const NamedEntry* entry = chain->named_entry(full_key);
  return entry ? &entry->data : nullptr;
}

const StoredObject* GroupView::object_lookup(ObjectId id) const {
  if (deleted.contains(id)) return nullptr;
  auto it = objects.find(id);
  if (it != objects.end()) return &it->second;
  const auto& committed = chain->objects();
  auto cit = committed.find(id);
  return cit == committed.end() ? nullptr : &cit->second;
}

void GroupView::absorb(const TxEffects& effects, const Address& sender,
                       Mist gas, Mist attached, const std::string& contract,
                       bool success) {
  balance_delta[sender].debit += gas;
  if (!success) return;  // failed calls keep only the nonce + gas debit
  balance_delta[sender].debit += attached;
  Delta& escrow = escrow_delta[contract];
  escrow.credit += attached;
  escrow.debit += effects.escrow_out;
  for (const auto& [account, amount] : effects.credits)
    balance_delta[account].credit += amount;
  for (const StoredObject& obj : effects.created) objects[obj.id] = obj;
  for (const auto& [id, data] : effects.object_writes) {
    const StoredObject* current = object_lookup(id);
    if (current == nullptr) continue;  // unreachable: write checked live
    StoredObject updated = *current;
    updated.data = data;
    ++updated.version;
    objects[id] = std::move(updated);
  }
  for (ObjectId id : effects.object_deletes) {
    objects.erase(id);
    deleted.insert(id);
  }
  for (const auto& [key, value] : effects.named_writes) named[key] = value;
}

}  // namespace detail

// --- CallContext ---------------------------------------------------------

namespace {

constexpr std::uint32_t kMaxObjectsPerCall = 1u << 12;  // id counter width

/// Latches the first access violation; the whole call aborts at return
/// even if the contract swallows the error we hand back here.
Status check_access(detail::TxScratch& scratch, const std::string& key,
                    bool write) {
  if (scratch.access == nullptr) return ok_status();  // exclusive mode
  const bool allowed = write ? scratch.access->allows_write(key)
                             : scratch.access->allows_read(key);
  if (allowed) return ok_status();
  std::string message = std::string("access violation: undeclared ") +
                        (write ? "write" : "read") + " of key '" + key + "'";
  if (!scratch.violated) {
    scratch.violated = true;
    scratch.violation = message;
  }
  return fail(std::move(message));
}

}  // namespace

SimTime CallContext::timestamp() const {
  return scratch_->view_mode ? chain_.now() : scratch_->timestamp;
}

Result<ObjectId> CallContext::create_object(Bytes data) {
  detail::TxScratch& s = *scratch_;
  if (s.id_counter >= kMaxObjectsPerCall)
    return fail("object creation limit reached for this transaction");
  const ObjectId id = s.id_base | s.id_counter++;
  StoredObject obj;
  obj.id = id;
  obj.owner = sender_;
  obj.rebate_credit = storage_rebate(data.size());
  s.effects.bytes_stored += data.size();
  ++s.effects.objects_created;
  s.effects.rebate_accrued += obj.rebate_credit;
  obj.data = std::move(data);
  s.created_ids.insert(id);
  s.effects.created.push_back(std::move(obj));
  return id;
}

Result<Bytes> CallContext::read_object(ObjectId id) const {
  detail::TxScratch& s = *scratch_;
  if (s.created_ids.contains(id)) {
    for (const StoredObject& obj : s.effects.created)
      if (obj.id == id) return obj.data;
  }
  if (auto st = check_access(s, object_access_key(id), /*write=*/false); !st)
    return st.error();
  if (std::find(s.effects.object_deletes.begin(),
                s.effects.object_deletes.end(),
                id) != s.effects.object_deletes.end())
    return fail("no object " + std::to_string(id));
  auto wit = s.effects.object_writes.find(id);
  if (wit != s.effects.object_writes.end()) return wit->second;
  const StoredObject* obj = s.group->object_lookup(id);
  if (obj == nullptr) return fail("no object " + std::to_string(id));
  return obj->data;
}

Result<Address> CallContext::object_owner(ObjectId id) const {
  detail::TxScratch& s = *scratch_;
  if (s.created_ids.contains(id)) return sender_;
  if (auto st = check_access(s, object_access_key(id), /*write=*/false); !st)
    return st.error();
  if (std::find(s.effects.object_deletes.begin(),
                s.effects.object_deletes.end(),
                id) != s.effects.object_deletes.end())
    return fail("no object " + std::to_string(id));
  const StoredObject* obj = s.group->object_lookup(id);
  if (obj == nullptr) return fail("no object " + std::to_string(id));
  return obj->owner;
}

Status CallContext::write_object(ObjectId id, Bytes data) {
  detail::TxScratch& s = *scratch_;
  if (s.created_ids.contains(id)) {
    for (StoredObject& obj : s.effects.created)
      if (obj.id == id) {
        obj.data = std::move(data);
        return ok_status();
      }
  }
  if (auto st = check_access(s, object_access_key(id), /*write=*/true); !st)
    return st;
  if (std::find(s.effects.object_deletes.begin(),
                s.effects.object_deletes.end(),
                id) != s.effects.object_deletes.end())
    return fail("no object " + std::to_string(id));
  if (s.effects.object_writes.contains(id) ||
      s.group->object_lookup(id) != nullptr) {
    s.effects.object_writes[id] = std::move(data);
    return ok_status();
  }
  return fail("no object " + std::to_string(id));
}

Status CallContext::delete_object(ObjectId id) {
  detail::TxScratch& s = *scratch_;
  if (s.created_ids.contains(id)) {
    // Created and deleted within one call: the storage charge stands (as
    // it always has), the rebate is credited immediately.
    for (auto it = s.effects.created.begin(); it != s.effects.created.end();
         ++it) {
      if (it->id != id) continue;
      s.effects.credits[it->owner] += it->rebate_credit;
      s.effects.created.erase(it);
      s.created_ids.erase(id);
      return ok_status();
    }
  }
  if (auto st = check_access(s, object_access_key(id), /*write=*/true); !st)
    return st;
  if (std::find(s.effects.object_deletes.begin(),
                s.effects.object_deletes.end(),
                id) != s.effects.object_deletes.end())
    return fail("no object " + std::to_string(id));
  const StoredObject* obj = s.group->object_lookup(id);
  if (obj == nullptr) return fail("no object " + std::to_string(id));
  s.effects.credits[obj->owner] += obj->rebate_credit;
  s.effects.object_writes.erase(id);
  s.effects.object_deletes.push_back(id);
  return ok_status();
}

namespace {

/// The named entry at `full` as this call sees it (its own writes over
/// the group's view): nullptr when absent or erased. Fails when the
/// access set does not declare the read.
Result<const Bytes*> named_entry(detail::TxScratch& s,
                                 const std::string& full) {
  if (auto st = check_access(s, full, /*write=*/false); !st)
    return st.error();
  auto it = s.effects.named_writes.find(full);
  if (it != s.effects.named_writes.end())
    return it->second ? &*it->second : nullptr;
  return s.group->named_lookup(full);
}

}  // namespace

bool CallContext::has_named(const std::string& key) const {
  auto entry = named_entry(*scratch_, named_access_key(contract_, key));
  return entry.ok() && *entry != nullptr;
}

Result<Bytes> CallContext::read_named(const std::string& key) const {
  return read_named_of(contract_, key);
}

Result<Bytes> CallContext::read_named_of(const std::string& contract,
                                         const std::string& key) const {
  const std::string full = named_access_key(contract, key);
  auto entry = named_entry(*scratch_, full);
  if (!entry) return entry.error();
  if (*entry == nullptr) return fail("no named entry '" + full + "'");
  return **entry;
}

Status CallContext::write_named(const std::string& key, Bytes data) {
  detail::TxScratch& s = *scratch_;
  const std::string full = named_access_key(contract_, key);
  if (auto st = check_access(s, full, /*write=*/true); !st) return st;
  s.effects.named_writes[full] = std::move(data);
  return ok_status();
}

Status CallContext::erase_named(const std::string& key) {
  detail::TxScratch& s = *scratch_;
  const std::string full = named_access_key(contract_, key);
  if (auto st = check_access(s, full, /*write=*/true); !st) return st;
  s.effects.named_writes[full] = std::nullopt;
  return ok_status();
}

void CallContext::emit_event(std::string name, std::string key,
                             Bytes payload) {
  Event ev;  // sequence + timestamp assigned at commit, canonical order
  ev.contract = contract_;
  ev.name = std::move(name);
  ev.key = std::move(key);
  ev.payload = std::move(payload);
  scratch_->effects.events.push_back(std::move(ev));
}

Status CallContext::pay_from_escrow(const Address& to, Mist amount) {
  detail::TxScratch& s = *scratch_;
  // The call's own attached tokens are already in escrow conceptually;
  // its own prior payouts are already out.
  const Mist available =
      s.group->escrow_of(contract_) + attached_ - s.effects.escrow_out;
  if (available < amount)
    return fail("contract escrow underfunded: have " +
                std::to_string(available) + ", need " +
                std::to_string(amount));
  s.effects.escrow_out += amount;
  s.effects.credits[to] += amount;
  return ok_status();
}

// --- Blockchain ----------------------------------------------------------

Blockchain::Blockchain() {
  Block genesis;
  genesis.height = 0;
  genesis.previous = crypto::sha256("debuglet-genesis");
  genesis.transactions_root =
      crypto::MerkleTree(std::vector<Bytes>{}).root();
  blocks_.push_back(genesis);
  obs::MetricsRegistry& reg = obs::registry();
  obs_.tx_submitted = &reg.counter("chain.tx_submitted");
  obs_.tx_rejected = &reg.counter("chain.tx_rejected");
  obs_.tx_failed = &reg.counter("chain.tx_failed");
  obs_.access_violations = &reg.counter("chain.access_violations");
  obs_.batches = &reg.counter("chain.batches");
  obs_.gas_charged = &reg.histogram("chain.gas_charged_mist");
  obs_.block_build_ms = &reg.histogram("chain.block_build_ms");
  obs_.event_fanout = &reg.histogram("chain.event_fanout");
  obs_.batch_groups = &reg.histogram("chain.batch.groups");
  obs_.batch_group_size = &reg.histogram("chain.batch.group_size");
  obs_.objects = &reg.gauge("chain.object_store.objects");
  obs_.object_bytes = &reg.gauge("chain.object_store.bytes");
}

Status Blockchain::register_contract(std::unique_ptr<Contract> contract) {
  if (contract == nullptr) return fail("null contract");
  const std::string name = contract->name();
  if (contracts_.contains(name))
    return fail("contract '" + name + "' already registered");
  auto [it, _] = contracts_.emplace(name, std::move(contract));
  it->second->attach(*this);
  return ok_status();
}

void Blockchain::mint(const Address& account, Mist amount) {
  balances_[account] += amount;
}

Mist Blockchain::balance(const Address& account) const {
  auto it = balances_.find(account);
  return it == balances_.end() ? 0 : it->second;
}

std::uint64_t Blockchain::nonce(const Address& account) const {
  auto it = nonces_.find(account);
  return it == nonces_.end() ? 0 : it->second;
}

Transaction Blockchain::make_transaction(const crypto::KeyPair& key,
                                         std::string contract,
                                         std::string function, Bytes arguments,
                                         Mist attached_tokens, Mist gas_budget,
                                         AccessSet access) {
  return make_transaction_with_nonce(
      key, nonce(Address::of(key.public_key())), std::move(contract),
      std::move(function), std::move(arguments), attached_tokens, gas_budget,
      std::move(access));
}

Transaction Blockchain::make_transaction_with_nonce(
    const crypto::KeyPair& key, std::uint64_t nonce, std::string contract,
    std::string function, Bytes arguments, Mist attached_tokens,
    Mist gas_budget, AccessSet access) {
  Transaction tx;
  tx.sender = key.public_key();
  tx.nonce = nonce;
  tx.contract = std::move(contract);
  tx.function = std::move(function);
  tx.arguments = std::move(arguments);
  tx.attached_tokens = attached_tokens;
  tx.gas_budget = gas_budget;
  tx.access = std::move(access);
  tx.access.canonicalize();
  const Bytes body = tx.signing_bytes();
  tx.signature = key.sign(BytesView(body.data(), body.size()));
  return tx;
}

Result<Receipt> Blockchain::submit(const Transaction& tx) {
  std::vector<Transaction> batch;
  batch.push_back(tx);
  auto results = submit_batch(batch, BatchOptions{});
  return std::move(results.front());
}

Result<Bytes> Blockchain::view(const std::string& contract,
                               const std::string& function,
                               BytesView arguments) {
  auto it = contracts_.find(contract);
  if (it == contracts_.end())
    return fail("unknown contract '" + contract + "'");
  detail::GroupView group;
  group.chain = this;
  detail::TxScratch scratch;
  scratch.view_mode = true;
  scratch.group = &group;
  CallContext ctx(*this, contract, Address{}, 0, &scratch);
  // All buffered effects are discarded: a view can never mutate state.
  return it->second->call(ctx, function, arguments);
}

SubscriptionId Blockchain::subscribe(std::string contract, std::string name,
                                     std::string key, EventCallback callback) {
  const SubscriptionId id = next_subscription_++;
  subscriptions_.emplace(id, Subscription{std::move(contract), std::move(name),
                                          std::move(key),
                                          std::move(callback)});
  return id;
}

void Blockchain::unsubscribe(SubscriptionId id) { subscriptions_.erase(id); }

crypto::Digest detail::header_hash(const Block& block) {
  BytesWriter w;
  w.u64(block.height);
  w.raw(block.previous.view());
  w.raw(block.transactions_root.view());
  w.i64(block.timestamp);
  return crypto::sha256(BytesView(w.bytes().data(), w.bytes().size()));
}

crypto::MerkleTree detail::digest_tree(
    const std::vector<crypto::Digest>& digests) {
  std::vector<Bytes> leaves;
  leaves.reserve(digests.size());
  for (const crypto::Digest& d : digests)
    leaves.emplace_back(d.bytes.begin(), d.bytes.end());
  return crypto::MerkleTree(leaves);
}

bool Blockchain::verify_integrity() const {
  for (std::size_t h = 1; h < blocks_.size(); ++h) {
    if (!(blocks_[h].previous == detail::header_hash(blocks_[h - 1])))
      return false;
    if (!(detail::digest_tree(blocks_[h].transaction_digests).root() ==
          blocks_[h].transactions_root))
      return false;
  }
  return true;
}

Result<crypto::MerkleProof> Blockchain::prove_transaction(
    std::uint64_t height, std::size_t index) const {
  if (height >= blocks_.size()) return fail("no block at that height");
  const Block& block = blocks_[height];
  if (index >= block.transaction_digests.size())
    return fail("no transaction at that index");
  return detail::digest_tree(block.transaction_digests).prove(index);
}

bool Blockchain::verify_transaction_inclusion(
    const Block& block, const crypto::Digest& tx_digest,
    const crypto::MerkleProof& proof) {
  const Bytes leaf(tx_digest.bytes.begin(), tx_digest.bytes.end());
  return crypto::merkle_verify(block.transactions_root,
                               BytesView(leaf.data(), leaf.size()), proof);
}

Result<Bytes> Blockchain::read_object(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return fail("no object " + std::to_string(id));
  return it->second.data;
}

Mist Blockchain::escrow_balance(const std::string& contract) const {
  auto it = escrow_.find(contract);
  return it == escrow_.end() ? 0 : it->second;
}

const NamedEntry* Blockchain::named_entry(const std::string& full_key) const {
  auto it = named_.find(full_key);
  return it == named_.end() ? nullptr : &it->second;
}

}  // namespace debuglet::chain
