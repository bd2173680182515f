#include "crypto/schnorr.hpp"

#include <algorithm>
#include <array>

namespace debuglet::crypto {

namespace {

// secp256k1 field prime: 2^256 - 2^32 - 977.
const U256& prime() {
  static const U256 p = *U256::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
  return p;
}

// p - 1: the exponent modulus (ord(g) divides p-1, so exponent arithmetic
// mod p-1 preserves g^x).
const U256& prime_minus_one() {
  static const U256 pm1 = [] {
    bool borrow = false;
    return sub(prime(), U256(1), &borrow);
  }();
  return pm1;
}

const U256& generator() {
  static const U256 g(5);
  return g;
}

// Digit i (0 = least significant) of e in base 16.
unsigned nibble(const U256& e, std::size_t i) {
  return static_cast<unsigned>(e.limbs[i / 16] >> (4 * (i % 16))) & 0xF;
}

// g^(d·16^i) mod p at [i][d−1], for the 64 nibble positions i of an
// exponent and its digits d = 1..15: 960 values (30 KiB), built on first
// use. Threads that sign at once wait on the static's guard for one copy.
using CombTable = std::array<std::array<U256, 15>, 64>;

const CombTable& comb() {
  static const CombTable table = [] {
    CombTable t;
    U256 base = generator();  // g^(16^i)
    for (auto& row : t) {
      row[0] = base;
      for (std::size_t d = 1; d < row.size(); ++d)
        row[d] = mul_mod(row[d - 1], base, prime());
      base = mul_mod(row.back(), base, prime());
    }
    return t;
  }();
  return table;
}

Digest challenge(const U256& r, const PublicKey& pk, BytesView message) {
  Sha256 h;
  const Bytes rb = r.to_be_bytes();
  const Bytes yb = pk.y.to_be_bytes();
  h.update(BytesView(rb.data(), rb.size()));
  h.update(BytesView(yb.data(), yb.size()));
  h.update(message);
  return h.finalize();
}

}  // namespace

const U256& group_prime() { return prime(); }
const U256& group_generator() { return generator(); }

bool valid_public_key(const U256& y) {
  return y > U256(1) && y < prime_minus_one();
}

U256 generator_pow(const U256& e) {
  const CombTable& table = comb();
  U256 result(1);
  bool first = true;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const unsigned d = nibble(e, i);
    if (d == 0) continue;
    result = first ? table[i][d - 1]
                   : mul_mod(result, table[i][d - 1], prime());
    first = false;
  }
  return result;
}

U256 group_pow(const U256& base, const U256& e) {
  const U256& p = prime();
  std::array<U256, 16> odd;  // base^(2j+1) mod p
  odd[0] = base >= p ? sub(base, p) : base;  // p > 2^255
  const U256 square = mul_mod(odd[0], odd[0], p);
  for (std::size_t j = 1; j < odd.size(); ++j)
    odd[j] = mul_mod(odd[j - 1], square, p);
  // Left to right: a zero bit squares; a one bit opens a window of up to
  // five bits ending in a one, whose odd power multiplies in once.
  U256 result(1);
  bool first = true;
  for (int i = e.bit_length() - 1; i >= 0;) {
    int low = i;
    if (e.bit(i))
      for (low = std::max(i - 4, 0); !e.bit(low);) ++low;
    unsigned window = 0;
    for (int b = i; b >= low; --b) {
      if (!first) result = mul_mod(result, result, p);
      window = window << 1 | (e.bit(b) ? 1u : 0u);
    }
    if (window != 0) {
      result = first ? odd[window >> 1] : mul_mod(result, odd[window >> 1], p);
      first = false;
    }
    i = low - 1;
  }
  return result;
}

U256 digest_to_exponent(const Digest& d) {
  // p − 1 > 2^255, so one conditional subtraction reduces any digest.
  U256 e = U256::from_be_bytes(d.view());
  if (e >= prime_minus_one()) e = sub(e, prime_minus_one());
  if (e.is_zero()) e = U256(1);
  return e;
}

Bytes Signature::to_bytes() const {
  Bytes out = r.to_be_bytes();
  const Bytes sb = s.to_be_bytes();
  out.insert(out.end(), sb.begin(), sb.end());
  return out;
}

Result<Signature> Signature::from_bytes(BytesView b) {
  if (b.size() != 64) return fail("signature must be 64 bytes");
  Signature sig;
  sig.r = U256::from_be_bytes(b.subspan(0, 32));
  sig.s = U256::from_be_bytes(b.subspan(32, 32));
  return sig;
}

KeyPair KeyPair::from_seed(std::uint64_t seed) {
  BytesWriter w;
  w.str("debuglet-keypair-seed");
  w.u64(seed);
  return from_seed_bytes(BytesView(w.bytes().data(), w.bytes().size()));
}

KeyPair KeyPair::from_seed_bytes(BytesView seed) {
  const U256 sk = digest_to_exponent(sha256(seed));
  return KeyPair(sk, PublicKey{generator_pow(sk)});
}

Signature KeyPair::sign(BytesView message) const {
  // Deterministic nonce: HMAC(sk, message), reduced to a nonzero exponent.
  const Bytes sk_bytes = sk_.to_be_bytes();
  const Digest nd =
      hmac_sha256(BytesView(sk_bytes.data(), sk_bytes.size()), message);
  const U256 k = digest_to_exponent(nd);
  const U256 r = generator_pow(k);
  const U256 e = digest_to_exponent(challenge(r, pk_, message));
  const U256 s = add_mod(k, mul_mod(e, sk_, prime_minus_one()),
                         prime_minus_one());
  return Signature{r, s};
}

U256 KeyPair::shared_secret(const PublicKey& peer) const {
  return group_pow(peer.y, sk_);
}

Signature KeyPair::sign(std::string_view message) const {
  return sign(BytesView(reinterpret_cast<const std::uint8_t*>(message.data()),
                        message.size()));
}

bool verify(const PublicKey& pk, BytesView message, const Signature& sig) {
  if (!valid_public_key(pk.y)) return false;
  if (sig.r.is_zero() || sig.r >= prime()) return false;
  const U256 e = digest_to_exponent(challenge(sig.r, pk, message));
  // g^s == r·y^e  ⇔  g^s · y^(p−1−e) == r, because y^(p−1) = 1.
  const U256 y_inv_e = group_pow(pk.y, sub(prime_minus_one(), e));
  return mul_mod(generator_pow(sig.s), y_inv_e, prime()) == sig.r;
}

bool verify(const PublicKey& pk, std::string_view message,
            const Signature& sig) {
  return verify(
      pk,
      BytesView(reinterpret_cast<const std::uint8_t*>(message.data()),
                message.size()),
      sig);
}

}  // namespace debuglet::crypto
