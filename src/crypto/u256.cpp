#include "crypto/u256.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace debuglet::crypto {

using u128 = unsigned __int128;

U256 U256::from_be_bytes(BytesView b) {
  if (b.size() > 32) throw std::invalid_argument("U256::from_be_bytes: >32 bytes");
  U256 out;
  std::size_t bit = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const std::uint8_t byte = b[b.size() - 1 - i];
    out.limbs[bit / 64] |= static_cast<std::uint64_t>(byte) << (bit % 64);
    bit += 8;
  }
  return out;
}

Bytes U256::to_be_bytes() const {
  Bytes out(32);
  for (std::size_t i = 0; i < 32; ++i) {
    const std::size_t bit = i * 8;
    out[31 - i] = static_cast<std::uint8_t>(limbs[bit / 64] >> (bit % 64));
  }
  return out;
}

Result<U256> U256::from_hex(std::string_view hex) {
  if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
  if (hex.empty() || hex.size() > 64) return fail("U256 hex: bad length");
  std::string padded(64 - hex.size(), '0');
  padded += hex;
  auto bytes = ::debuglet::from_hex(padded);
  if (!bytes) return bytes.error();
  return from_be_bytes(*bytes);
}

std::string U256::hex() const { return to_hex(to_be_bytes()); }

bool U256::is_zero() const {
  return limbs[0] == 0 && limbs[1] == 0 && limbs[2] == 0 && limbs[3] == 0;
}

int U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (limbs[static_cast<std::size_t>(i)] != 0)
      return i * 64 + 64 - std::countl_zero(limbs[static_cast<std::size_t>(i)]);
  }
  return 0;
}

bool U256::bit(int i) const {
  return (limbs[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1;
}

bool U512::is_zero() const {
  return std::all_of(limbs.begin(), limbs.end(),
                     [](std::uint64_t l) { return l == 0; });
}

int U512::bit_length() const {
  for (int i = 7; i >= 0; --i) {
    if (limbs[static_cast<std::size_t>(i)] != 0)
      return i * 64 + 64 - std::countl_zero(limbs[static_cast<std::size_t>(i)]);
  }
  return 0;
}

U256 add(const U256& a, const U256& b, bool* carry) {
  U256 out;
  u128 acc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    acc += static_cast<u128>(a.limbs[i]) + b.limbs[i];
    out.limbs[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  if (carry) *carry = acc != 0;
  return out;
}

U256 sub(const U256& a, const U256& b, bool* borrow) {
  U256 out;
  u128 borrow_acc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 lhs = a.limbs[i];
    const u128 rhs = static_cast<u128>(b.limbs[i]) + borrow_acc;
    if (lhs >= rhs) {
      out.limbs[i] = static_cast<std::uint64_t>(lhs - rhs);
      borrow_acc = 0;
    } else {
      out.limbs[i] = static_cast<std::uint64_t>((u128(1) << 64) + lhs - rhs);
      borrow_acc = 1;
    }
  }
  if (borrow) *borrow = borrow_acc != 0;
  return out;
}

U512 mul_wide(const U256& a, const U256& b) {
  U512 out;
  for (std::size_t i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      u128 cur = static_cast<u128>(a.limbs[i]) * b.limbs[j] +
                 out.limbs[i + j] + carry;
      out.limbs[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    std::size_t k = i + 4;
    while (carry != 0) {
      u128 cur = static_cast<u128>(out.limbs[k]) + carry;
      out.limbs[k] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  return out;
}

namespace {

// Shifts a U512 left by one bit in place.
void shl1(U512& x) {
  for (int i = 7; i > 0; --i)
    x.limbs[static_cast<std::size_t>(i)] =
        (x.limbs[static_cast<std::size_t>(i)] << 1) |
        (x.limbs[static_cast<std::size_t>(i - 1)] >> 63);
  x.limbs[0] <<= 1;
}

// r >= m over the low 5 limbs (m treated as 512-bit with zero high limbs)?
bool ge(const U512& r, const U256& m) {
  for (int i = 7; i >= 4; --i)
    if (r.limbs[static_cast<std::size_t>(i)] != 0) return true;
  for (int i = 3; i >= 0; --i) {
    const std::uint64_t a = r.limbs[static_cast<std::size_t>(i)];
    const std::uint64_t b = m.limbs[static_cast<std::size_t>(i)];
    if (a != b) return a > b;
  }
  return true;
}

void sub_in_place(U512& r, const U256& m) {
  u128 borrow = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const u128 rhs = (i < 4 ? static_cast<u128>(m.limbs[i]) : 0) + borrow;
    const u128 lhs = r.limbs[i];
    if (lhs >= rhs) {
      r.limbs[i] = static_cast<std::uint64_t>(lhs - rhs);
      borrow = 0;
    } else {
      r.limbs[i] = static_cast<std::uint64_t>((u128(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
}

}  // namespace

U256 mod(const U512& x, const U256& m) {
  if (m.is_zero()) throw std::invalid_argument("mod: modulus is zero");
  // Binary long division: bring in x's bits from the top into a remainder.
  U512 rem;
  const int bits = x.bit_length();
  for (int i = bits - 1; i >= 0; --i) {
    shl1(rem);
    if ((x.limbs[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1)
      rem.limbs[0] |= 1;
    if (ge(rem, m)) sub_in_place(rem, m);
  }
  U256 out;
  for (std::size_t i = 0; i < 4; ++i) out.limbs[i] = rem.limbs[i];
  return out;
}

U256 mod(const U256& x, const U256& m) {
  U512 wide;
  for (std::size_t i = 0; i < 4; ++i) wide.limbs[i] = x.limbs[i];
  return mod(wide, m);
}

U256 add_mod(const U256& a, const U256& b, const U256& m) {
  bool carry = false;
  U256 s = add(a, b, &carry);
  if (carry || s >= m) {
    bool borrow = false;
    s = sub(s, m, &borrow);
  }
  return s;
}

U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  if (a >= b) {
    bool borrow = false;
    return sub(a, b, &borrow);
  }
  bool borrow = false;
  const U256 diff = sub(b, a, &borrow);
  return sub(m, diff, &borrow);
}

U256 mul_mod(const U256& a, const U256& b, const U256& m) {
  return mod(mul_wide(a, b), m);
}

}  // namespace debuglet::crypto
