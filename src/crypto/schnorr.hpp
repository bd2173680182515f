// Schnorr signatures over the multiplicative group Z_p*.
//
// Executors certify measurement results with these signatures (paper §IV-B:
// "The output can then be certified by the deploying AS, allowing third
// parties to verify the measurement results"), and chain transactions are
// authenticated with them.
//
// Parameters: p is the secp256k1 field prime (a 256-bit prime), g = 5.
// Exponents live mod (p-1); the Fiat–Shamir challenge is
// e = SHA256(r || pk || msg). Nonces are deterministic (HMAC of key and
// message), so signing is reproducible.
//
// Two exponentiations serve the scheme, both over mul_mod (u256.hpp).
// Powers of g (key derivation, signing, g^s in verify) use a fixed-base
// comb: a table of g^(d·16^i), built once per process, so g^e takes at
// most 63 multiplications and no squaring. Any other base (pk in verify,
// the peer key in shared_secret) uses a 5-bit sliding window.
// Verification is the one expression g^s · pk^(p−1−e) == r, which equals
// g^s == r·pk^e for every valid key because pk^(p−1) = 1.
//
// The discrete log in Z_p* at this size is NOT production-grade security;
// the reproduction needs the protocol shape, not deployed-grade hardness
// (DESIGN.md §2).
#pragma once

#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"
#include "util/result.hpp"

namespace debuglet::crypto {

/// Public verification key (group element, < p).
struct PublicKey {
  U256 y;
  bool operator==(const PublicKey&) const = default;
  std::string hex() const { return y.hex(); }
  Bytes to_bytes() const { return y.to_be_bytes(); }
};

/// Signature: commitment r and response s.
struct Signature {
  U256 r;
  U256 s;
  bool operator==(const Signature&) const = default;

  Bytes to_bytes() const;
  static Result<Signature> from_bytes(BytesView b);
};

/// Secret/public key pair.
class KeyPair {
 public:
  /// Derives a key pair deterministically from a seed (test/scenario use).
  static KeyPair from_seed(std::uint64_t seed);

  /// Derives a key pair from arbitrary seed bytes.
  static KeyPair from_seed_bytes(BytesView seed);

  const PublicKey& public_key() const { return pk_; }

  /// Signs a message; deterministic (same key + message → same signature).
  Signature sign(BytesView message) const;
  Signature sign(std::string_view message) const;

  /// Diffie–Hellman shared secret with a peer: peer.y ^ sk mod p. Both
  /// sides derive the same value (used by the crypto::box sealed boxes).
  U256 shared_secret(const PublicKey& peer) const;

 private:
  KeyPair(U256 sk, PublicKey pk) : sk_(sk), pk_(pk) {}
  U256 sk_;
  PublicKey pk_;
};

/// Verifies a signature against a public key and message.
bool verify(const PublicKey& pk, BytesView message, const Signature& sig);
bool verify(const PublicKey& pk, std::string_view message,
            const Signature& sig);

/// Whether y may serve as a public key: y in [2, p−2]. Zero and values
/// ≥ p are not group elements; 1 and p−1 have order 1 and 2, so anyone
/// can forge a signature for them or compute their shared secret.
bool valid_public_key(const U256& y);

/// The check on sealed-box keys (box.hpp): valid_public_key(y), and y
/// outside the subgroups of small order (p − 1 = 2·3·7·13441·q, q prime).
/// It costs an exponentiation, so verify keeps the range check alone.
bool valid_seal_key(const U256& y);

// Exposed for tests and benches.

/// The group prime p and generator g.
const U256& group_prime();
const U256& group_generator();

/// g^e mod p by the fixed-base comb: at most 63 multiplications.
U256 generator_pow(const U256& e);

/// base^e mod p by a 5-bit sliding window; base may be any 256-bit value.
U256 group_pow(const U256& base, const U256& e);

/// Maps a digest to a nonzero exponent mod (p−1).
U256 digest_to_exponent(const Digest& d);

}  // namespace debuglet::crypto
