// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for chain block/transaction hashing, Merkle trees, result integrity
// hashes, and as the hash inside HMAC and Schnorr challenges.
//
// The compression function has two implementations, chosen once per
// process: portable C++ rounds, and on x86-64 CPUs that have them the SHA
// extensions (SHA-NI). Both produce the same state for the same blocks;
// the portable one is the fallback and the oracle the tests compare the
// other against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/bytes.hpp"

namespace debuglet::crypto {

/// A 32-byte digest with value semantics and ordering (map keys, hex I/O).
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  auto operator<=>(const Digest&) const = default;

  std::string hex() const { return to_hex(BytesView(bytes.data(), bytes.size())); }
  BytesView view() const { return BytesView(bytes.data(), bytes.size()); }
};

/// Incremental SHA-256; feed any number of update() calls, then finalize().
class Sha256 {
 public:
  Sha256();

  void update(BytesView data);
  void update(std::string_view s);

  /// Completes the hash. The object must not be reused afterwards.
  Digest finalize();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// One-shot hash of a byte span.
Digest sha256(BytesView data);

/// One-shot hash of a string's bytes.
Digest sha256(std::string_view s);

/// HMAC-SHA256 (RFC 2104).
Digest hmac_sha256(BytesView key, BytesView message);

// The block functions behind Sha256, for tests and benchmarks only.
namespace detail {

/// Compresses `count` consecutive 64-byte blocks at `data` into `state`.
using Sha256Blocks = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t count);

/// FIPS 180-4 rounds in plain C++: the fallback and the test oracle.
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t count);

/// The x86-64 SHA-extensions version, or nullptr when this build or this
/// CPU lacks the extensions.
Sha256Blocks sha256_blocks_sha_ni();

/// The block function Sha256 uses: sha256_blocks_sha_ni() when present,
/// else sha256_blocks_portable.
Sha256Blocks sha256_blocks_selected();

}  // namespace detail

}  // namespace debuglet::crypto
