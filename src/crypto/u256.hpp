// 256-bit unsigned integer arithmetic.
//
// Provides the modular arithmetic under the Schnorr signature scheme in
// schnorr.hpp: full 256x256→512-bit products, bit-serial long-division
// reduction, and modular add/sub/multiply. The exponentiations built on
// mul_mod (a fixed-base comb and a sliding window) live in schnorr.cpp;
// tests compare them with the square-and-multiply pow_mod in
// tests/u256_oracle.hpp. Not constant-time — this is a reproduction's
// certification substrate, not deployed cryptography.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace debuglet::crypto {

/// 256-bit unsigned integer, 4 little-endian 64-bit limbs.
struct U256 {
  std::array<std::uint64_t, 4> limbs{};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t v) : limbs{v, 0, 0, 0} {}

  static U256 from_be_bytes(BytesView b);  // up to 32 big-endian bytes
  Bytes to_be_bytes() const;               // exactly 32 big-endian bytes

  /// Parses a hex string (at most 64 digits, optional "0x").
  static Result<U256> from_hex(std::string_view hex);
  std::string hex() const;

  bool is_zero() const;
  int bit_length() const;
  bool bit(int i) const;  // i in [0, 256)

  auto operator<=>(const U256& o) const {
    for (int i = 3; i >= 0; --i) {
      if (limbs[static_cast<std::size_t>(i)] != o.limbs[static_cast<std::size_t>(i)])
        return limbs[static_cast<std::size_t>(i)] < o.limbs[static_cast<std::size_t>(i)]
                   ? std::strong_ordering::less
                   : std::strong_ordering::greater;
    }
    return std::strong_ordering::equal;
  }
  bool operator==(const U256&) const = default;
};

/// 512-bit product container (8 little-endian limbs).
struct U512 {
  std::array<std::uint64_t, 8> limbs{};
  bool is_zero() const;
  int bit_length() const;
};

/// a + b, wrapping mod 2^256; `carry` (optional) receives the overflow bit.
U256 add(const U256& a, const U256& b, bool* carry = nullptr);

/// a - b, wrapping; `borrow` (optional) receives the underflow bit.
U256 sub(const U256& a, const U256& b, bool* borrow = nullptr);

/// Full 256x256 → 512-bit product.
U512 mul_wide(const U256& a, const U256& b);

/// x mod m via binary long division. Precondition: m != 0.
U256 mod(const U512& x, const U256& m);
U256 mod(const U256& x, const U256& m);

/// (a + b) mod m; operands must already be < m.
U256 add_mod(const U256& a, const U256& b, const U256& m);

/// (a - b) mod m; operands must already be < m.
U256 sub_mod(const U256& a, const U256& b, const U256& m);

/// (a * b) mod m.
U256 mul_mod(const U256& a, const U256& b, const U256& m);

}  // namespace debuglet::crypto
