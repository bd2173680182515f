#include "telemetry/int_header.hpp"

#include <algorithm>

namespace debuglet::telemetry {

namespace {

// Records the typed cause (when the caller asked for it) and builds the
// human-readable error in one step, same shape as net/packet's reject().
Error reject(IntParseError* kind, IntParseError k, std::string message) {
  if (kind != nullptr) *kind = k;
  return fail(std::move(message));
}

void write_record(BytesWriter& w, const HopRecord& r) {
  w.u32(r.asn);
  w.u16(r.ingress_interface);
  w.u16(r.egress_interface);
  w.u64(r.ingress_ns);
  w.u64(r.egress_ns);
  w.u32(r.queue_depth);
  w.u32(r.drops_seen);
  w.u32(r.wire_faults);
}

}  // namespace

const char* int_parse_error_name(IntParseError kind) {
  switch (kind) {
    case IntParseError::kNone: return "none";
    case IntParseError::kTruncated: return "truncated";
    case IntParseError::kBadMagic: return "bad_magic";
    case IntParseError::kBadVersion: return "bad_version";
    case IntParseError::kBadHopCount: return "bad_hop_count";
    case IntParseError::kDigestMismatch: return "digest_mismatch";
  }
  return "unknown";
}

IntHeader IntHeader::reserve(std::uint8_t max_hops) {
  IntHeader h;
  h.max_hops_ = std::clamp<std::uint8_t>(max_hops, 1, kMaxHopsLimit);
  return h;
}

bool IntHeader::push(const HopRecord& record) {
  if (hop_count_ >= max_hops_) {
    flags_ |= kFlagTruncated;
    return false;
  }
  records_[hop_count_++] = record;
  return true;
}

Bytes IntHeader::serialize() const {
  BytesWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(flags_);
  w.u8(max_hops_);
  w.u8(hop_count_);
  w.u8(reserved_[0]);
  w.u8(0);  // pad
  w.u8(0);
  w.u8(0);
  w.raw(BytesView(reserved_.data() + 1, kReservedTailSize));
  // Every slot serializes, used or not, so the wire size is a function of
  // max_hops alone and never changes as records are pushed in flight.
  for (std::size_t i = 0; i < max_hops_; ++i) write_record(w, records_[i]);
  w.u64(fnv1a(BytesView(w.bytes().data(), w.bytes().size())));
  return w.take();
}

bool IntHeader::looks_like_int(BytesView payload) {
  if (payload.size() < 4) return false;
  const std::uint32_t magic = static_cast<std::uint32_t>(payload[0]) |
                              static_cast<std::uint32_t>(payload[1]) << 8 |
                              static_cast<std::uint32_t>(payload[2]) << 16 |
                              static_cast<std::uint32_t>(payload[3]) << 24;
  return magic == kMagic;
}

std::size_t IntHeader::prefix_size(BytesView payload) {
  if (payload.size() < kFixedSize || !looks_like_int(payload)) return 0;
  const std::uint8_t max_hops = payload[6];  // layout: magic,ver,flags,max
  if (max_hops == 0 || max_hops > kMaxHopsLimit) return 0;
  const std::size_t size = wire_size(max_hops);
  return size <= payload.size() ? size : 0;
}

Result<IntHeader> IntHeader::parse(BytesView data, IntParseError* kind) {
  if (kind != nullptr) *kind = IntParseError::kNone;
  if (data.size() < kFixedSize)
    return reject(kind, IntParseError::kTruncated, "INT header truncated");
  if (!looks_like_int(data))
    return reject(kind, IntParseError::kBadMagic, "INT magic mismatch");
  BytesReader r(data);
  (void)r.u32();  // magic, checked above
  const std::uint8_t version = *r.u8();
  if (version != kVersion)
    return reject(kind, IntParseError::kBadVersion,
                  "INT version " + std::to_string(version) + " unsupported");
  IntHeader h;
  h.flags_ = *r.u8();
  h.max_hops_ = *r.u8();
  h.hop_count_ = *r.u8();
  h.reserved_[0] = *r.u8();
  (void)r.u8();  // pad, written back as zero
  (void)r.u8();
  (void)r.u8();
  if (h.max_hops_ == 0 || h.max_hops_ > kMaxHopsLimit ||
      h.hop_count_ > h.max_hops_)
    return reject(kind, IntParseError::kBadHopCount,
                  "INT hop counts out of range");
  const std::size_t total = wire_size(h.max_hops_);
  if (data.size() < total)
    return reject(kind, IntParseError::kTruncated,
                  "INT block shorter than its budget demands");
  const Bytes reserved = *r.raw(kReservedTailSize);
  std::copy(reserved.begin(), reserved.end(), h.reserved_.begin() + 1);
  for (std::size_t i = 0; i < h.max_hops_; ++i) {
    HopRecord& rec = h.records_[i];
    rec.asn = *r.u32();
    rec.ingress_interface = *r.u16();
    rec.egress_interface = *r.u16();
    rec.ingress_ns = *r.u64();
    rec.egress_ns = *r.u64();
    rec.queue_depth = *r.u32();
    rec.drops_seen = *r.u32();
    rec.wire_faults = *r.u32();
  }
  const std::uint64_t carried = *r.u64();
  if (carried != fnv1a(data.subspan(0, total - 8)))
    return reject(kind, IntParseError::kDigestMismatch,
                  "INT digest mismatch (in-flight damage)");
  return h;
}

}  // namespace debuglet::telemetry
