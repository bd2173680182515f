#include "simnet/link_faults.hpp"

namespace debuglet::simnet {

// Damage positions are a pure function of WireDamage::seed (a splitmix64
// stream), so the network applies damage at delivery time without
// consuming link RNG state.
void apply_wire_damage(Bytes& wire, const WireDamage& damage) {
  switch (damage.kind) {
    case WireDamage::Kind::kNone:
      return;
    case WireDamage::Kind::kCorrupt: {
      if (wire.empty()) return;
      std::uint64_t state = damage.seed;
      for (std::uint32_t i = 0; i < damage.bit_flips; ++i) {
        const std::uint64_t draw = splitmix64(state);
        const std::size_t bit = draw % (wire.size() * 8);
        wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      return;
    }
    case WireDamage::Kind::kTruncate:
      if (damage.truncate_to < wire.size()) wire.resize(damage.truncate_to);
      return;
    case WireDamage::Kind::kMangle: {
      if (damage.offset >= wire.size()) return;
      const std::size_t span = wire.size() - damage.offset;
      std::uint64_t state = damage.seed;
      for (std::uint32_t i = 0; i < damage.bit_flips; ++i) {
        const std::uint64_t draw = splitmix64(state);
        const std::size_t bit = draw % (span * 8);
        wire[damage.offset + bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
      }
      return;
    }
  }
}

LinkFaultPlan& LinkFaultPlan::corrupt(double probability_pm,
                                      std::uint32_t max_bit_flips,
                                      FaultWindow window) {
  corrupt_.probability_pm = probability_pm;
  corrupt_.max_bit_flips = max_bit_flips == 0 ? 1 : max_bit_flips;
  corrupt_.window = window;
  return *this;
}

LinkFaultPlan& LinkFaultPlan::truncate(double probability_pm,
                                       FaultWindow window) {
  truncate_.probability_pm = probability_pm;
  truncate_.window = window;
  return *this;
}

LinkFaultPlan& LinkFaultPlan::duplicate(double probability_pm,
                                        std::uint32_t max_copies,
                                        FaultWindow window) {
  duplicate_.probability_pm = probability_pm;
  duplicate_.max_copies = max_copies == 0 ? 1 : max_copies;
  duplicate_.window = window;
  return *this;
}

LinkFaultPlan& LinkFaultPlan::reorder(double probability_pm,
                                      double max_extra_delay_ms,
                                      FaultWindow window) {
  reorder_.probability_pm = probability_pm;
  reorder_.max_extra_delay_ms = max_extra_delay_ms;
  reorder_.window = window;
  return *this;
}

LinkFaultPlan& LinkFaultPlan::flap(SimTime start, SimTime end) {
  flaps_.push_back(FaultWindow{start, end});
  return *this;
}

}  // namespace debuglet::simnet
