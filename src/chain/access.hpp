// Declared read/write sets for owned-object transactions.
//
// The Sui-Lutris model the chain imitates parallelizes transactions that
// touch disjoint owned objects. A transaction *declares*, at signing time,
// the state keys its contract call will read and write; the batch
// scheduler (chain/parallel.cpp) partitions a block into conflict-free
// groups from these declarations alone, so grouping — and therefore every
// observable of execution — is independent of worker count.
//
// Keys are flat strings with two namespaces:
//   "obj/<id>"              — a StoredObject by id
//   "<contract>/<suffix>"   — named contract state (CallContext read_named/
//                             write_named auto-prefixes the contract name)
//
// A transaction with an EMPTY access set runs in legacy *exclusive* mode:
// it conflicts with every other transaction in its batch (whole-batch
// serialization) and no access enforcement applies. A transaction with a
// non-empty set runs *declared*: touching any undeclared key aborts the
// call with ErrorKind::kAccessViolation and none of its effects commit.
//
// Implicit keys never declared by callers:
//   - the sender account (nonce + balance) is always a write;
//   - objects created by the call are fresh (ids are a pure function of
//     the block height and canonical transaction index) and free to use;
//   - contract escrow moves are commutative deltas, so escrow is
//     deliberately NOT a conflict key — uncontended purchases do not
//     serialize on the shared pot. A batch whose groups together overdraw
//     a contract's escrow executes again as one group.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace debuglet::chain {

struct AccessSet {
  std::vector<std::string> reads;
  std::vector<std::string> writes;

  /// True when the transaction opted into declared (parallelizable) mode.
  bool declared() const { return !reads.empty() || !writes.empty(); }

  void add_read(std::string key) { reads.push_back(std::move(key)); }
  void add_write(std::string key) { writes.push_back(std::move(key)); }

  /// Sorts and dedups both sets — the canonical form covered by the
  /// transaction signature.
  void canonicalize() {
    auto tidy = [](std::vector<std::string>& v) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    tidy(reads);
    tidy(writes);
  }

  /// True if `key` may be read (writes imply read permission).
  bool allows_read(const std::string& key) const {
    return std::binary_search(reads.begin(), reads.end(), key) ||
           allows_write(key);
  }

  bool allows_write(const std::string& key) const {
    return std::binary_search(writes.begin(), writes.end(), key);
  }

  /// Appends the canonical encoding (must be canonicalize()d first);
  /// covered by Transaction::signing_bytes.
  void write_to(BytesWriter& w) const {
    w.u32(static_cast<std::uint32_t>(reads.size()));
    for (const std::string& k : reads) w.str(k);
    w.u32(static_cast<std::uint32_t>(writes.size()));
    for (const std::string& k : writes) w.str(k);
  }
};

/// The access key naming a StoredObject.
inline std::string object_access_key(std::uint64_t id) {
  return "obj/" + std::to_string(id);
}

/// The full access key of a named contract-state entry.
inline std::string named_access_key(const std::string& contract,
                                    const std::string& key) {
  return contract + "/" + key;
}

}  // namespace debuglet::chain
