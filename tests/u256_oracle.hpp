// Test-only reference for the exponentiations under the Schnorr scheme
// (crypto/schnorr.hpp): square-and-multiply over mul_mod, one bit of the
// exponent at a time, for any modulus. Differential tests compare the
// fixed-base comb (generator_pow) and the sliding window (group_pow) with it,
// and verify() with the textbook check g^s == r·y^e built on it.
#pragma once

#include <stdexcept>

#include "crypto/u256.hpp"

namespace debuglet::crypto::oracle {

/// base^exp mod m, square-and-multiply. Precondition: m > 1.
inline U256 pow_mod(const U256& base, const U256& exp, const U256& m) {
  if (m <= U256(1)) throw std::invalid_argument("pow_mod: modulus <= 1");
  U256 result(1);
  const U256 b = mod(base, m);
  for (int i = exp.bit_length() - 1; i >= 0; --i) {
    result = mul_mod(result, result, m);
    if (exp.bit(i)) result = mul_mod(result, b, m);
  }
  return result;
}

}  // namespace debuglet::crypto::oracle
