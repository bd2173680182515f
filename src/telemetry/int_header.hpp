// In-band network telemetry (INT) header.
//
// Probe packets opt into path telemetry by carrying an IntHeader as their
// application-payload prefix. Each forwarding device the simulator walks
// appends one bounded HopRecord — AS and interface identity, ingress and
// egress timestamps (hop latency and residence time), queue depth at
// enqueue, a drop-counter snapshot, and the wire-fault tally of the link
// just crossed — TPP / P4-INT style, so ONE end-to-end probe carries
// whole-path visibility and the localizer needs a single round instead of
// a binary search (paper §VI-D collapsed to O(1)).
//
// The record stack is pre-allocated at build time: the wire size is fixed
// by max_hops and never changes in flight, so IP/UDP lengths stay stable
// and pushing records is checksum-neutral at layer 3. Pushing past the
// budget sets the TRUNCATED flag and drops the record (explicit truncation
// semantics, never reallocation). A trailing FNV-1a digest is recomputed
// on every push; receivers reject damaged stacks with a typed error,
// mirroring net::ParseErrorKind discipline.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace debuglet::telemetry {

/// Why an INT payload failed to parse. Receive paths branch on the kind
/// and export it as the `reason` label of `telemetry.parse_rejected`.
enum class IntParseError : std::uint8_t {
  kNone = 0,
  kTruncated,        // buffer shorter than the fixed layout demands
  kBadMagic,         // payload does not start with "DINT"
  kBadVersion,       // unknown header version
  kBadHopCount,      // hop_count > max_hops or max_hops out of range
  kDigestMismatch,   // in-flight damage to the record stack
};

/// Stable label text for a kind ("digest_mismatch", ...).
const char* int_parse_error_name(IntParseError kind);

/// One per-hop telemetry record, appended by the ingress border router of
/// the AS that terminates each inter-domain link crossing.
struct HopRecord {
  std::uint32_t asn = 0;                 // recording AS
  std::uint16_t ingress_interface = 0;   // interface the packet arrived on
  std::uint16_t egress_interface = 0;    // 0 at the path's final AS
  std::uint64_t ingress_ns = 0;          // arrival at this AS (sim clock)
  std::uint64_t egress_ns = 0;           // departure toward the next link
  std::uint32_t queue_depth = 0;         // active episodes on the link
  std::uint32_t drops_seen = 0;          // network drop counter snapshot
  std::uint32_t wire_faults = 0;         // LinkIntegrityStats total so far

  static constexpr std::size_t kSize = 36;
  bool operator==(const HopRecord&) const = default;
};

/// The versioned, digest-protected INT stack a probe carries.
class IntHeader {
 public:
  static constexpr std::uint32_t kMagic = 0x544E4944;  // "DINT", little-endian
  static constexpr std::uint8_t kVersion = 1;
  /// Hard hop budget: with 36-byte records this caps the INT block at
  /// 52 + 32*36 = 1204 bytes, inside any sane probe MTU.
  static constexpr std::uint8_t kMaxHopsLimit = 32;

  /// Flag bit: a push found the stack full. The other bits are reserved;
  /// parse keeps them and serialize writes them back.
  static constexpr std::uint8_t kFlagTruncated = 0x02;

  /// Builds an empty header with room for `max_hops` records (clamped to
  /// [1, kMaxHopsLimit]).
  static IntHeader reserve(std::uint8_t max_hops);

  /// Appends a record. Returns false — and latches the TRUNCATED flag —
  /// when the stack is full; the record is dropped, the wire size is
  /// unchanged either way.
  bool push(const HopRecord& record);

  std::uint8_t hop_count() const { return hop_count_; }
  std::uint8_t max_hops() const { return max_hops_; }
  std::span<const HopRecord> records() const {
    return {records_.data(), hop_count_};
  }
  const HopRecord& record(std::size_t i) const { return records_[i]; }

  bool truncated() const { return flags_ & kFlagTruncated; }

  /// Wire size of a header with the given budget (fixed in flight).
  static constexpr std::size_t wire_size(std::uint8_t max_hops) {
    return kFixedSize + kReservedTailSize +
           static_cast<std::size_t>(max_hops) * HopRecord::kSize + 8;
  }
  std::size_t wire_size() const { return wire_size(max_hops_); }

  /// Serializes with a freshly computed trailing digest.
  Bytes serialize() const;

  /// Parses an INT block from the front of `data` (trailing payload bytes
  /// are ignored), verifying magic, version, bounds, and digest. On
  /// failure `kind` (when non-null) receives the typed cause.
  static Result<IntHeader> parse(BytesView data,
                                 IntParseError* kind = nullptr);

  /// Cheap predicate: does this payload start with the INT magic? Used by
  /// the forwarding hot path to decide whether a packet opted in before
  /// paying for a full parse.
  static bool looks_like_int(BytesView payload);

  /// Bytes a leading INT block occupies in `payload` (0 when the payload
  /// does not start with a plausible block). Lets consumers that care
  /// about the APPLICATION bytes — DPI classifiers, payload manglers —
  /// skip the network-metadata prefix without a full digest-checked parse.
  static std::size_t prefix_size(BytesView payload);

  bool operator==(const IntHeader&) const = default;

 private:
  static constexpr std::size_t kFixedSize = 12;         // magic..zero pad
  static constexpr std::size_t kReservedTailSize = 32;  // bytes 12..43

  std::uint8_t flags_ = 0;
  std::uint8_t max_hops_ = 1;
  std::uint8_t hop_count_ = 0;
  /// The reserved block (docs/TELEMETRY.md): byte 8, then the tail after
  /// three zero pad bytes. reserve() writes 0xFF, then zeros.
  std::array<std::uint8_t, 1 + kReservedTailSize> reserved_{0xFF};
  std::array<HopRecord, kMaxHopsLimit> records_{};
};

}  // namespace debuglet::telemetry
