// Gas and storage pricing.
//
// Calibrated against the paper's Table II (cost of submitting a Debuglet
// application to the Sui mainnet): total cost grows linearly in payload
// size and a storage rebate is refunded when the stored data is freed.
// Units are MIST (1 SUI = 1e9 MIST), matching Sui's convention.
//
//   Table II:  size   total (SUI)   rebate (SUI)
//              0 B    0.01369       0.00430
//              100 B  0.01585       0.00632
//              1 kB   0.03527       0.02456
//              5 kB   0.12160       0.10562
//              10 kB  0.22953       0.20696
//
// The published points are linear to within rounding:
//   total(size)  = 0.01369 + 21'584e-9 * size   [SUI]
//   rebate(size) = 0.00430 + 20'266e-9 * size   [SUI]
#pragma once

#include <cstdint>

namespace debuglet::chain {

/// MIST amounts (1e-9 SUI).
using Mist = std::uint64_t;

inline constexpr double kMistPerSui = 1e9;

// Pricing constants for object creation and deletion.
inline constexpr Mist kComputationFee = 9'373'200;   // flat per transaction
inline constexpr Mist kStoragePricePerByte = 21'584;  // per payload byte
inline constexpr std::uint32_t kObjectOverheadBytes = 200;  // metadata
inline constexpr Mist kRebatePerObject = 4'300'000;  // refunded on free
inline constexpr Mist kRebatePerByte = 20'266;       // per payload byte

/// Storage charge for one object of `payload_bytes`.
constexpr Mist storage_fee(std::uint64_t payload_bytes) {
  return kStoragePricePerByte * (kObjectOverheadBytes + payload_bytes);
}

/// Total transaction cost creating one object of `payload_bytes` (the
/// quantity Table II reports).
constexpr Mist submission_cost(std::uint64_t payload_bytes) {
  return kComputationFee + storage_fee(payload_bytes);
}

/// Rebate credited when an object of `payload_bytes` is deleted.
constexpr Mist storage_rebate(std::uint64_t payload_bytes) {
  return kRebatePerObject + kRebatePerByte * payload_bytes;
}

/// Converts MIST to SUI for reports.
inline double mist_to_sui(Mist mist) {
  return static_cast<double>(mist) / kMistPerSui;
}

}  // namespace debuglet::chain
