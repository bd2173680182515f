// Test-only: group elements of small order (crypto/schnorr.hpp). The group
// order is p − 1 = 2·3·7·13441·q with q prime, and g = 5 generates the whole
// group, so 5^((p−1)/k) has order k. Each lies in [2, p−2] and passes
// valid_public_key; a box sealed for one, or with one as its ephemeral key,
// has one of only k shared secrets, so valid_seal_key rejects them all.
#pragma once

#include <cstdint>

#include "crypto/u256.hpp"

namespace debuglet::crypto::oracle {

struct SmallOrderKey {
  std::uint64_t order;
  U256 y;
};

inline const SmallOrderKey kSmallOrderKeys[] = {
    {3, *U256::from_hex("851695d49a83f8ef919bb86153cbcb16"
                        "630fb68aed0a766a3ec693d68e6afa40")},
    {7, *U256::from_hex("828ae4be889531689c205b202218166e"
                        "a14a2d24995eb1765297429aef1bd456")},
    {13441, *U256::from_hex("d964e607dad5d632653a92e4994a8dc1"
                            "716135608e8b62d9332b7bd64b694d36")},
    {21, *U256::from_hex("b7c13ad2d2002f71993bd0e56c461463"
                         "a1134020cd7dc4d79f663c87543d5401")},
    {3 * 13441, *U256::from_hex("70f4f2b2cb36f43a83f92f8b7bb9ca58"
                                "644d96e7c2a29eb9682d352e4e47479d")},
};

}  // namespace debuglet::crypto::oracle
