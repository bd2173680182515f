// The batch scheduler: verifies, partitions, executes and commits a block
// of transactions (Blockchain::submit_batch).
//
// Four phases:
//   0. prepare   — signature checks on the worker pool (embarrassingly
//                  parallel and the dominant per-tx cost).
//   1. partition — union-find over declared access sets (+ the implicit
//                  sender-account write) yields conflict-free groups.
//                  Any legacy exclusive transaction collapses the batch
//                  into a single group.
//   2. execute   — groups run on the pool; each group executes its
//                  members serially, in canonical order, against a
//                  group-local overlay of the frozen committed state.
//                  Escrow is not a conflict key, so when the groups'
//                  payouts together overdraw a contract's escrow the
//                  batch executes again as one group.
//   3. commit    — single-threaded, canonical order: effects, balances,
//                  versions, event sequence numbers and ONE sealed block.
//
// Grouping depends only on the declared sets, and every phase consumes
// state that is a pure function of the batch contents — so receipts,
// events, gas, balances and object versions are bit-identical at any
// worker count. docs/CHAIN.md states the full determinism contract.
#include <atomic>
#include <thread>

#include "chain/execution.hpp"
#include "obs/trace.hpp"

namespace debuglet::chain {
namespace detail {
namespace {

/// Runs fn(0..count) across `workers` threads (inline when 1).
template <typename Fn>
void run_indexed(unsigned workers, std::size_t count, const Fn& fn) {
  if (workers <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < count;) fn(i);
  };
  const std::size_t spawn =
      std::min<std::size_t>(workers, count) - 1;  // this thread works too
  std::vector<std::thread> pool;
  pool.reserve(spawn);
  for (std::size_t t = 0; t < spawn; ++t) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
}

std::size_t dsu_find(std::vector<std::size_t>& parent, std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];  // path halving
    i = parent[i];
  }
  return i;
}

void dsu_union(std::vector<std::size_t>& parent, std::size_t a,
               std::size_t b) {
  a = dsu_find(parent, a);
  b = dsu_find(parent, b);
  if (a != b) parent[std::max(a, b)] = std::min(a, b);
}

}  // namespace

void BatchState::prepare(unsigned workers) {
  const std::vector<Transaction>& batch = *txs;
  const std::size_t n = batch.size();
  sig_ok.assign(n, 0);
  contract_ptr.assign(n, nullptr);
  senders.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    chain->obs_.tx_submitted->add();
    senders[i] = Address::of(batch[i].sender);
    auto it = chain->contracts_.find(batch[i].contract);
    if (it != chain->contracts_.end()) contract_ptr[i] = it->second.get();
  }
  run_indexed(workers, n, [&](std::size_t i) {
    const Bytes body = batch[i].signing_bytes();
    sig_ok[i] = crypto::verify(batch[i].sender,
                               BytesView(body.data(), body.size()),
                               batch[i].signature)
                    ? 1
                    : 0;
  });
}

void BatchState::partition() {
  const std::vector<Transaction>& batch = *txs;
  const std::size_t n = batch.size();
  groups.clear();
  bool all_declared = true;
  for (const Transaction& tx : batch)
    if (!tx.access.declared()) {
      all_declared = false;
      break;
    }
  if (!all_declared || n <= 1) {
    single_group();  // exclusive mode (or trivial batch)
    return;
  }
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  struct Touch {
    std::size_t tx;
    bool write;
  };
  std::map<std::string, std::vector<Touch>> touches;
  for (std::size_t i = 0; i < n; ++i) {
    // The sender account (nonce + balance) is an implicit write.
    touches["acct/" + senders[i].hex()].push_back({i, true});
    for (const std::string& k : batch[i].access.reads)
      touches[k].push_back({i, false});
    for (const std::string& k : batch[i].access.writes)
      touches[k].push_back({i, true});
  }
  for (const auto& [key, list] : touches) {
    bool has_writer = false;
    for (const Touch& t : list)
      if (t.write) {
        has_writer = true;
        break;
      }
    if (!has_writer) continue;  // shared reads never conflict
    for (std::size_t j = 1; j < list.size(); ++j)
      dsu_union(parent, list[0].tx, list[j].tx);
  }
  std::map<std::size_t, std::size_t> root_to_group;  // first member order
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = dsu_find(parent, i);
    auto [it, inserted] = root_to_group.try_emplace(root, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
}

void BatchState::single_group() {
  groups.assign(1, std::vector<std::size_t>(txs->size()));
  for (std::size_t i = 0; i < txs->size(); ++i) groups.front()[i] = i;
}

void BatchState::execute(unsigned workers) {
  outcomes.assign(txs->size(), TxOutcome{});
  run_indexed(std::min<std::size_t>(workers, groups.size()), groups.size(),
              [&](std::size_t g) { execute_group(groups[g]); });
}

bool BatchState::overdraws_escrow() const {
  // Each group checked its payouts against its own view only; replay the
  // escrow moves of every successful call in canonical (commit) order.
  std::map<std::string, Mist> pot;
  for (const TxOutcome& out : outcomes) {
    if (!out.apply_effects) continue;
    auto [it, fresh] = pot.try_emplace(out.contract);
    if (fresh) it->second = chain->escrow_balance(out.contract);
    it->second += out.attached;
    if (it->second < out.effects.escrow_out) return true;
    it->second -= out.effects.escrow_out;
  }
  return false;
}

void BatchState::execute_group(const std::vector<std::size_t>& members) {
  GroupView view;
  view.chain = chain;
  for (std::size_t index : members) execute_tx(view, index);
}

void BatchState::execute_tx(GroupView& view, std::size_t index) {
  const Transaction& tx = (*txs)[index];
  TxOutcome& out = outcomes[index];
  out.sender = senders[index];
  out.contract = tx.contract;
  // Admission, with exactly the legacy submit() checks and messages.
  if (!sig_ok[index]) {
    out.rejected = true;
    out.reject_error = "invalid transaction signature";
    return;
  }
  const std::uint64_t expected = view.nonce_of(out.sender);
  if (tx.nonce != expected) {
    out.rejected = true;
    out.reject_error = "bad nonce: expected " + std::to_string(expected) +
                       ", got " + std::to_string(tx.nonce);
    return;
  }
  if (contract_ptr[index] == nullptr) {
    out.rejected = true;
    out.reject_error = "unknown contract '" + tx.contract + "'";
    return;
  }
  const Mist worst_case = tx.gas_budget + tx.attached_tokens;
  if (view.balance_of(out.sender) < worst_case) {
    out.rejected = true;
    out.reject_error =
        "insufficient balance: have " +
        std::to_string(view.balance_of(out.sender)) + " MIST, need " +
        std::to_string(worst_case);
    return;
  }
  view.nonce_bump[out.sender] += 1;
  out.attached = tx.attached_tokens;

  TxScratch scratch;
  scratch.group = &view;
  scratch.access = tx.access.declared() ? &tx.access : nullptr;
  scratch.id_base = (block_height << 32) |
                    (static_cast<ObjectId>(index) << 12);
  scratch.timestamp = timestamp;
  CallContext ctx(*chain, tx.contract, out.sender, tx.attached_tokens,
                  &scratch);
  auto result = contract_ptr[index]->call(
      ctx, tx.function, BytesView(tx.arguments.data(), tx.arguments.size()));

  // Gas: flat computation plus storage for created objects.
  Mist gas = kComputationFee;
  gas += kStoragePricePerByte *
         (scratch.effects.objects_created * kObjectOverheadBytes +
          scratch.effects.bytes_stored);

  Receipt& receipt = out.receipt;
  receipt.transaction_digest = tx.digest();
  receipt.block_height = block_height;
  bool success = false;
  if (scratch.violated) {
    receipt.error = scratch.violation;
    receipt.error_kind = ErrorKind::kAccessViolation;
  } else if (!result) {
    receipt.error = result.error_message();
    receipt.error_kind = ErrorKind::kContract;
  } else if (gas > tx.gas_budget) {
    receipt.error = "out of gas: computed " + std::to_string(gas) +
                    " MIST exceeds budget " + std::to_string(tx.gas_budget);
    receipt.error_kind = ErrorKind::kOutOfGas;
  } else {
    success = true;
    receipt.success = true;
    receipt.return_value = std::move(*result);
  }
  if (gas > tx.gas_budget) gas = tx.gas_budget;
  // Defensive clamp; admission guarantees balance covers budget+attached.
  const Mist available = view.balance_of(out.sender) - tx.attached_tokens;
  if (gas > available) gas = available;
  receipt.gas_charged = gas;
  receipt.storage_rebate_accrued = success ? scratch.effects.rebate_accrued : 0;
  out.gas = gas;
  out.apply_effects = success;
  if (success) out.effects = std::move(scratch.effects);
  view.absorb(out.effects, out.sender, gas, tx.attached_tokens, tx.contract,
              success);
}

std::vector<Result<Receipt>> BatchState::commit() {
  const std::size_t n = outcomes.size();
  std::vector<Result<Receipt>> results;
  results.reserve(n);
  std::vector<crypto::Digest> digests;
  const bool timing = chain->obs_.block_build_ms->enabled();
  const std::int64_t begin_us = timing ? obs::wall_now_us() : 0;
  for (std::size_t i = 0; i < n; ++i) {
    TxOutcome& out = outcomes[i];
    if (out.rejected) {
      chain->obs_.tx_rejected->add();
      results.push_back(fail(out.reject_error));
      continue;
    }
    Receipt receipt = std::move(out.receipt);
    ++chain->nonces_[out.sender];
    chain->balances_[out.sender] -= receipt.gas_charged;
    chain->obs_.gas_charged->record(static_cast<double>(receipt.gas_charged));
    if (out.apply_effects) {
      chain->balances_[out.sender] -= out.attached;
      chain->escrow_[out.contract] += out.attached;
      chain->escrow_[out.contract] -= out.effects.escrow_out;
      for (const auto& [account, amount] : out.effects.credits)
        chain->balances_[account] += amount;
      for (StoredObject& obj : out.effects.created) {
        chain->object_bytes_total_ += obj.data.size();
        const ObjectId id = obj.id;
        chain->objects_.insert_or_assign(id, std::move(obj));
      }
      for (auto& [id, data] : out.effects.object_writes) {
        auto it = chain->objects_.find(id);
        if (it == chain->objects_.end()) continue;  // unreachable
        chain->object_bytes_total_ += data.size();
        chain->object_bytes_total_ -= it->second.data.size();
        it->second.data = std::move(data);
        ++it->second.version;
      }
      for (ObjectId id : out.effects.object_deletes) {
        auto it = chain->objects_.find(id);
        if (it == chain->objects_.end()) continue;  // unreachable
        chain->object_bytes_total_ -= it->second.data.size();
        chain->objects_.erase(it);
      }
      for (auto& [key, value] : out.effects.named_writes) {
        if (value) {
          auto it = chain->named_.find(key);
          if (it == chain->named_.end()) {
            chain->named_.emplace(key, NamedEntry{1, std::move(*value)});
          } else {
            ++it->second.version;
            it->second.data = std::move(*value);
          }
        } else {
          chain->named_.erase(key);
        }
      }
      for (Event& ev : out.effects.events) {
        ev.sequence = chain->next_event_seq_++;
        ev.timestamp = timestamp;
        std::uint64_t fanout = 0;
        for (const auto& [_, sub] : chain->subscriptions_) {
          if (sub.contract != ev.contract || sub.name != ev.name) continue;
          if (!sub.key.empty() && sub.key != ev.key) continue;
          ++fanout;
          sub.callback(ev);
        }
        chain->obs_.event_fanout->record(static_cast<double>(fanout));
      }
    } else {
      chain->obs_.tx_failed->add();
      if (receipt.error_kind == ErrorKind::kAccessViolation)
        chain->obs_.access_violations->add();
    }
    digests.push_back(receipt.transaction_digest);
    results.push_back(std::move(receipt));
  }
  if (!digests.empty()) {
    Block block;
    block.height = block_height;
    block.previous = header_hash(chain->blocks_.back());
    block.transactions_root = digest_tree(digests).root();
    block.timestamp = timestamp;
    block.transaction_digests = std::move(digests);
    chain->blocks_.push_back(std::move(block));
  }
  if (timing)
    chain->obs_.block_build_ms->record(
        static_cast<double>(obs::wall_now_us() - begin_us) / 1000.0);
  chain->obs_.batches->add();
  chain->obs_.batch_groups->record(static_cast<double>(groups.size()));
  for (const auto& group : groups)
    chain->obs_.batch_group_size->record(static_cast<double>(group.size()));
  chain->obs_.objects->set(static_cast<double>(chain->objects_.size()));
  chain->obs_.object_bytes->set(
      static_cast<double>(chain->object_bytes_total_));
  return results;
}

}  // namespace detail

std::vector<Result<Receipt>> Blockchain::submit_batch(
    const std::vector<Transaction>& txs, const BatchOptions& options) {
  if (txs.empty()) return {};
  detail::BatchState batch;
  batch.chain = this;
  batch.txs = &txs;
  batch.timestamp = now();
  batch.block_height = blocks_.size();
  const unsigned workers = options.workers == 0 ? 1 : options.workers;
  batch.prepare(workers);
  batch.partition();
  batch.execute(workers);
  if (batch.groups.size() > 1 && batch.overdraws_escrow()) {
    // In one group every payout sees every earlier one, so the outcome
    // depends only on the batch contents.
    batch.single_group();
    batch.execute(workers);
  }
  return batch.commit();
}

}  // namespace debuglet::chain
