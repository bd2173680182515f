// Wire-level fault injection (the link chaos layer).
//
// HostFaultPlan (host_faults.hpp) faults the NODES; this module faults the
// WIRE. The paper's premise (§II) is that forwarding devices damage and
// discriminate traffic, and §VI-E assumes operators may actively misbehave
// — a LinkFaultPlan schedules that misbehaviour for one DIRECTED link:
//
//   * corruption  — flip a few random bits in the frame. The receive path
//                   must notice (IPv4/ICMP checksums, obs/wire digests) or
//                   knowingly accept damaged payload bytes;
//   * truncation  — chop the frame short, leaving a valid-looking IPv4
//                   header claiming more bytes than arrive;
//   * duplication — emit extra copies, each with an independent extra
//                   delay (switch retransmit / multipath re-merge);
//   * reordering  — hold a packet back by a random extra delay so later
//                   packets overtake it (a forced reordering burst);
//   * flaps       — timed windows where the link is down entirely. Because
//                   plans are per DIRECTION, a flap on one direction only
//                   is an asymmetric partition.
//
// Conventions mirror HostFaultPlan: windows are [start, end) with end <=
// start meaning "never" (kAlways spans everything), builder shorthands
// chain, and every stochastic choice draws from an Rng forked off the
// scenario seed — equal-seed chaos runs stay bit-identical.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace debuglet::simnet {

/// A [start, end) activity window; end <= start is inert.
struct FaultWindow {
  SimTime start = 0;
  SimTime end = std::numeric_limits<SimTime>::max();

  bool active_at(SimTime t) const { return t >= start && t < end; }
};

inline constexpr FaultWindow kAlways{};

/// Seeded bit corruption of in-flight frames.
struct CorruptSpec {
  double probability_pm = 0.0;     // per-copy chance, per mille
  std::uint32_t max_bit_flips = 8; // each hit flips 1..max bits
  FaultWindow window = kAlways;
};

/// Frames chopped short mid-flight (a cut-through switch losing its tail).
struct TruncateSpec {
  double probability_pm = 0.0;  // per-copy chance, per mille
  FaultWindow window = kAlways; // truncates to uniform [1, size-1] bytes
};

/// Extra copies of a frame, each delayed independently.
struct DuplicateSpec {
  double probability_pm = 0.0;  // per-packet chance, per mille
  std::uint32_t max_copies = 1; // extra copies per duplicated packet
  double extra_delay_min_ms = 0.1;
  double extra_delay_max_ms = 5.0;  // per-copy uniform extra delay
  FaultWindow window = kAlways;
};

/// Forced reordering: held-back packets let later ones overtake.
struct ReorderSpec {
  double probability_pm = 0.0;      // per-packet chance, per mille
  double max_extra_delay_ms = 10.0; // held back uniform (0, max]
  FaultWindow window = kAlways;
};

/// How one delivered copy of a frame was damaged in flight. The damage is
/// a pure function of this record (the seed captures every random choice
/// made at traverse time), so it can be applied to the wire bytes later —
/// at delivery — without touching the link's RNG again.
struct WireDamage {
  /// kCorrupt flips bits anywhere in the frame (random wire noise);
  /// kMangle flips bits at or after `offset` only — a DPI middlebox
  /// rewriting application payload while leaving the headers (and their
  /// checksums) intact, per the middlebox chaos layer.
  enum class Kind : std::uint8_t { kNone, kCorrupt, kTruncate, kMangle };
  Kind kind = Kind::kNone;
  std::uint64_t seed = 0;        // positions derive from this, splitmix64
  std::uint32_t bit_flips = 0;   // kCorrupt/kMangle: how many bits to flip
  std::uint32_t truncate_to = 0; // kTruncate: surviving byte count
  std::uint32_t offset = 0;      // kMangle: first eligible byte

  bool damaged() const { return kind != Kind::kNone; }
};

/// Applies recorded damage to a frame in place (no-op for kNone).
void apply_wire_damage(Bytes& wire, const WireDamage& damage);

/// Per-link running totals of injected wire faults — the ground truth the
/// localizer attaches to segments as delivery-integrity evidence.
struct LinkIntegrityStats {
  std::uint64_t corrupted = 0;
  std::uint64_t truncated = 0;
  std::uint64_t duplicated = 0;  // extra copies emitted
  std::uint64_t reordered = 0;
  std::uint64_t flap_dropped = 0;

  LinkIntegrityStats& operator+=(const LinkIntegrityStats& o) {
    corrupted += o.corrupted;
    truncated += o.truncated;
    duplicated += o.duplicated;
    reordered += o.reordered;
    flap_dropped += o.flap_dropped;
    return *this;
  }
  std::uint64_t total() const {
    return corrupted + truncated + duplicated + reordered + flap_dropped;
  }
};

/// Delta of two cumulative counters (evidence windows: after - before).
inline LinkIntegrityStats operator-(LinkIntegrityStats a,
                                    const LinkIntegrityStats& b) {
  a.corrupted -= b.corrupted;
  a.truncated -= b.truncated;
  a.duplicated -= b.duplicated;
  a.reordered -= b.reordered;
  a.flap_dropped -= b.flap_dropped;
  return a;
}

/// The wire-fault schedule for one directed link. Composable with the
/// link's FaultSpec overlay and with HostFaultPlans at either end; an
/// empty plan costs nothing on the forwarding path.
class LinkFaultPlan {
 public:
  /// Builder shorthands; all return *this for chaining. The two-argument
  /// forms fault the whole run; pass a FaultWindow to scope them.
  LinkFaultPlan& corrupt(double probability_pm, std::uint32_t max_bit_flips = 8,
                         FaultWindow window = kAlways);
  LinkFaultPlan& truncate(double probability_pm, FaultWindow window = kAlways);
  LinkFaultPlan& duplicate(double probability_pm, std::uint32_t max_copies = 1,
                           FaultWindow window = kAlways);
  LinkFaultPlan& reorder(double probability_pm, double max_extra_delay_ms,
                         FaultWindow window = kAlways);
  /// The link is down during [start, end) — on this direction only, so a
  /// one-sided flap is an asymmetric partition.
  LinkFaultPlan& flap(SimTime start, SimTime end);

  bool empty() const {
    return corrupt_.probability_pm <= 0.0 && truncate_.probability_pm <= 0.0 &&
           duplicate_.probability_pm <= 0.0 && reorder_.probability_pm <= 0.0 &&
           flaps_.empty();
  }
  bool flapped_at(SimTime t) const {
    for (const FaultWindow& w : flaps_)
      if (w.active_at(t)) return true;
    return false;
  }

  const CorruptSpec& corruption() const { return corrupt_; }
  const TruncateSpec& truncation() const { return truncate_; }
  const DuplicateSpec& duplication() const { return duplicate_; }
  const ReorderSpec& reordering() const { return reorder_; }

 private:
  CorruptSpec corrupt_;
  TruncateSpec truncate_;
  DuplicateSpec duplicate_;
  ReorderSpec reorder_;
  std::vector<FaultWindow> flaps_;
};

}  // namespace debuglet::simnet
