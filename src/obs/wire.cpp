#include "obs/wire.hpp"

#include <algorithm>

namespace debuglet::obs::wire {

namespace {

// Layer magics: 'DSNP' (snapshot) and 'DSCK' (chunk), read as u32 LE.
constexpr std::uint32_t kSnapshotMagic = 0x504E5344;
constexpr std::uint32_t kChunkMagic = 0x4B435344;
constexpr std::uint8_t kChunkVersion = 1;

constexpr std::uint8_t kind_to_u8(MetricRow::Kind k) {
  return static_cast<std::uint8_t>(k);
}

Result<MetricRow::Kind> kind_from_u8(std::uint8_t v) {
  switch (v) {
    case kind_to_u8(MetricRow::Kind::kCounter):
      return MetricRow::Kind::kCounter;
    case kind_to_u8(MetricRow::Kind::kGauge):
      return MetricRow::Kind::kGauge;
    case kind_to_u8(MetricRow::Kind::kHistogram):
      return MetricRow::Kind::kHistogram;
    default:
      return fail("snapshot: unknown metric kind " + std::to_string(v));
  }
}

}  // namespace

Bytes encode_snapshot(const std::vector<MetricRow>& rows) {
  BytesWriter w;
  w.u32(kSnapshotMagic);
  w.u16(kSnapshotVersion);
  w.u16(0);  // flags, reserved
  w.varint(rows.size());
  for (const MetricRow& row : rows) {
    w.str(row.name);
    w.varint(row.labels.size());
    for (const auto& [key, value] : row.labels) {
      w.str(key);
      w.str(value);
    }
    w.u8(kind_to_u8(row.kind));
    switch (row.kind) {
      case MetricRow::Kind::kCounter:
        w.varint(row.count);  // counters are integral; varint compresses
        break;
      case MetricRow::Kind::kGauge:
        w.f64(row.value);
        w.f64(row.max);
        break;
      case MetricRow::Kind::kHistogram: {
        w.varint(row.count);
        w.f64(row.sum);
        w.f64(row.min);
        w.f64(row.max);
        // Buckets as (index, count) pairs of the non-zero entries — the
        // vector is kBucketCount long but almost entirely zeros.
        std::size_t nonzero = 0;
        for (std::uint64_t b : row.hist_buckets) nonzero += b != 0 ? 1 : 0;
        w.varint(nonzero);
        for (std::size_t i = 0; i < row.hist_buckets.size(); ++i) {
          if (row.hist_buckets[i] == 0) continue;
          w.varint(i);
          w.varint(row.hist_buckets[i]);
        }
        break;
      }
    }
  }
  const std::uint64_t d = fnv1a(BytesView(w.bytes().data(), w.size()));
  w.u64(d);
  return w.take();
}

Result<std::vector<MetricRow>> decode_snapshot(BytesView data) {
  if (data.size() < 8 + 8) return fail("snapshot: truncated header");
  const BytesView body(data.data(), data.size() - 8);
  BytesReader trailer(BytesView(data.data() + data.size() - 8, 8));
  auto claimed = trailer.u64();
  if (!claimed) return claimed.error();
  if (*claimed != fnv1a(body))
    return fail("snapshot: digest mismatch (truncated or corrupted)");

  BytesReader r(body);
  auto magic = r.u32();
  if (!magic) return magic.error();
  if (*magic != kSnapshotMagic) return fail("snapshot: bad magic");
  auto version = r.u16();
  if (!version) return version.error();
  if (*version == 0 || *version > kSnapshotVersion)
    return fail("snapshot: unsupported version " + std::to_string(*version));
  auto flags = r.u16();
  if (!flags) return flags.error();
  auto row_count = r.varint();
  if (!row_count) return row_count.error();
  // Each row is at least ~4 bytes; a count far beyond the body length is
  // malformed regardless of the digest.
  if (*row_count > body.size()) return fail("snapshot: implausible row count");

  std::vector<MetricRow> rows;
  rows.reserve(*row_count);
  for (std::uint64_t i = 0; i < *row_count; ++i) {
    MetricRow row;
    auto name = r.str();
    if (!name) return name.error();
    row.name = std::move(*name);
    auto label_count = r.varint();
    if (!label_count) return label_count.error();
    if (*label_count > 256) return fail("snapshot: too many labels");
    for (std::uint64_t l = 0; l < *label_count; ++l) {
      auto key = r.str();
      if (!key) return key.error();
      auto value = r.str();
      if (!value) return value.error();
      row.labels.emplace_back(std::move(*key), std::move(*value));
    }
    auto kind_byte = r.u8();
    if (!kind_byte) return kind_byte.error();
    auto kind = kind_from_u8(*kind_byte);
    if (!kind) return kind.error();
    row.kind = *kind;
    switch (row.kind) {
      case MetricRow::Kind::kCounter: {
        auto v = r.varint();
        if (!v) return v.error();
        row.count = *v;
        row.value = static_cast<double>(*v);
        break;
      }
      case MetricRow::Kind::kGauge: {
        auto v = r.f64();
        if (!v) return v.error();
        auto m = r.f64();
        if (!m) return m.error();
        row.value = *v;
        row.max = *m;
        break;
      }
      case MetricRow::Kind::kHistogram: {
        auto count = r.varint();
        if (!count) return count.error();
        auto sum = r.f64();
        if (!sum) return sum.error();
        auto min = r.f64();
        if (!min) return min.error();
        auto max = r.f64();
        if (!max) return max.error();
        row.count = *count;
        row.sum = *sum;
        row.min = *min;
        row.max = *max;
        row.hist_buckets.assign(Histogram::kBucketCount, 0);
        auto nonzero = r.varint();
        if (!nonzero) return nonzero.error();
        if (*nonzero > Histogram::kBucketCount)
          return fail("snapshot: more non-zero buckets than layout has");
        for (std::uint64_t b = 0; b < *nonzero; ++b) {
          auto index = r.varint();
          if (!index) return index.error();
          if (*index >= Histogram::kBucketCount)
            return fail("snapshot: bucket index out of range");
          auto bucket = r.varint();
          if (!bucket) return bucket.error();
          row.hist_buckets[*index] = *bucket;
        }
        // Percentiles are derived, not shipped: recompute through a
        // scratch histogram so remote and local interpolation agree.
        Histogram h;
        if (auto s = h.restore(row.hist_buckets, row.count, row.sum, row.min,
                               row.max);
            !s)
          return s.error();
        row.p50 = h.p50();
        row.p90 = h.p90();
        row.p99 = h.p99();
        break;
      }
    }
    rows.push_back(std::move(row));
  }
  if (!r.exhausted()) return fail("snapshot: trailing bytes before digest");
  return rows;
}

std::size_t chunk_count(std::size_t encoded_size,
                        std::uint32_t chunk_payload) {
  if (chunk_payload == 0) return 0;
  return std::max<std::size_t>(
      1, (encoded_size + chunk_payload - 1) / chunk_payload);
}

Result<Bytes> build_chunk(BytesView encoded_snapshot, std::size_t index,
                          std::uint32_t chunk_payload) {
  if (chunk_payload < kMinChunkPayload || chunk_payload > kMaxChunkPayload)
    return fail("chunk payload " + std::to_string(chunk_payload) +
                " outside [" + std::to_string(kMinChunkPayload) + ", " +
                std::to_string(kMaxChunkPayload) + "]");
  const std::size_t count = chunk_count(encoded_snapshot.size(), chunk_payload);
  if (count > kMaxChunks)
    return fail("snapshot needs " + std::to_string(count) +
                " chunks, format carries at most " +
                std::to_string(kMaxChunks));
  if (index >= count)
    return fail("chunk index " + std::to_string(index) + " out of range [0, " +
                std::to_string(count) + ")");
  const std::size_t begin = index * chunk_payload;
  const std::size_t length =
      std::min<std::size_t>(chunk_payload, encoded_snapshot.size() - begin);

  BytesWriter w;
  w.u32(kChunkMagic);
  w.u8(kChunkVersion);
  // Chunks of different snapshots must never merge: the id is derived from
  // the snapshot digest (its low 32 bits), which the encoding stores in
  // its last 8 bytes.
  std::uint32_t snapshot_id = 0;
  if (encoded_snapshot.size() >= 8) {
    const std::uint8_t* d =
        encoded_snapshot.data() + encoded_snapshot.size() - 8;
    snapshot_id = static_cast<std::uint32_t>(d[0]) |
                  static_cast<std::uint32_t>(d[1]) << 8 |
                  static_cast<std::uint32_t>(d[2]) << 16 |
                  static_cast<std::uint32_t>(d[3]) << 24;
  }
  w.u32(snapshot_id);
  w.u16(static_cast<std::uint16_t>(index));
  w.u16(static_cast<std::uint16_t>(count));
  w.u32(static_cast<std::uint32_t>(encoded_snapshot.size()));
  w.blob(BytesView(encoded_snapshot.data() + begin, length));
  w.u64(fnv1a(BytesView(w.bytes().data(), w.size())));
  return w.take();
}

Result<Chunk> parse_chunk(BytesView data) {
  if (data.size() < 8 + 8) return fail("chunk: truncated");
  const BytesView body(data.data(), data.size() - 8);
  BytesReader trailer(BytesView(data.data() + data.size() - 8, 8));
  auto claimed = trailer.u64();
  if (!claimed) return claimed.error();
  if (*claimed != fnv1a(body))
    return fail("chunk: digest mismatch (truncated or corrupted)");

  BytesReader r(body);
  auto magic = r.u32();
  if (!magic) return magic.error();
  if (*magic != kChunkMagic) return fail("chunk: bad magic");
  auto version = r.u8();
  if (!version) return version.error();
  if (*version == 0 || *version > kChunkVersion)
    return fail("chunk: unsupported version " + std::to_string(*version));
  Chunk chunk;
  auto id = r.u32();
  if (!id) return id.error();
  chunk.snapshot_id = *id;
  auto index = r.u16();
  if (!index) return index.error();
  chunk.index = *index;
  auto count = r.u16();
  if (!count) return count.error();
  chunk.count = *count;
  auto total = r.u32();
  if (!total) return total.error();
  chunk.total_length = *total;
  auto payload = r.blob();
  if (!payload) return payload.error();
  chunk.payload = std::move(*payload);
  if (!r.exhausted()) return fail("chunk: trailing bytes");

  if (chunk.count == 0) return fail("chunk: zero chunk count");
  if (chunk.index >= chunk.count)
    return fail("chunk: index " + std::to_string(chunk.index) +
                " >= count " + std::to_string(chunk.count));
  if (chunk.payload.size() > chunk.total_length)
    return fail("chunk: payload longer than the whole snapshot");
  return chunk;
}

Status SnapshotAssembler::add_chunk(BytesView chunk_wire) {
  auto chunk = parse_chunk(chunk_wire);
  if (!chunk) return chunk.error();
  if (expected_ == 0) {
    expected_ = chunk->count;
    snapshot_id_ = chunk->snapshot_id;
    total_length_ = chunk->total_length;
    have_.assign(expected_, false);
    parts_.assign(expected_, Bytes{});
  } else {
    if (chunk->snapshot_id != snapshot_id_)
      return fail("chunk belongs to a different snapshot");
    if (chunk->count != expected_ || chunk->total_length != total_length_)
      return fail("chunk disagrees about the snapshot's shape");
  }
  if (have_[chunk->index]) {
    if (parts_[chunk->index] != chunk->payload)
      return fail("duplicate chunk " + std::to_string(chunk->index) +
                  " with different payload");
    return ok_status();  // harmless retransmission
  }
  have_[chunk->index] = true;
  parts_[chunk->index] = std::move(chunk->payload);
  ++received_;
  return ok_status();
}

bool SnapshotAssembler::complete() const {
  return expected_ != 0 && received_ == expected_;
}

std::vector<std::uint16_t> SnapshotAssembler::missing() const {
  std::vector<std::uint16_t> out;
  for (std::size_t i = 0; i < expected_; ++i)
    if (!have_[i]) out.push_back(static_cast<std::uint16_t>(i));
  return out;
}

Result<std::vector<MetricRow>> SnapshotAssembler::finish() const {
  if (!complete())
    return fail("snapshot incomplete: " + std::to_string(received_) + "/" +
                std::to_string(expected_) + " chunks");
  Bytes encoded;
  encoded.reserve(total_length_);
  for (const Bytes& part : parts_)
    encoded.insert(encoded.end(), part.begin(), part.end());
  if (encoded.size() != total_length_)
    return fail("reassembled " + std::to_string(encoded.size()) +
                " bytes, chunks declared " + std::to_string(total_length_));
  return decode_snapshot(BytesView(encoded.data(), encoded.size()));
}

void SnapshotAssembler::reset() {
  snapshot_id_ = 0;
  total_length_ = 0;
  expected_ = received_ = 0;
  have_.clear();
  parts_.clear();
}

Status merge_rows(MetricsRegistry& target, const std::vector<MetricRow>& rows,
                  const std::string& remote_host) {
  for (const MetricRow& row : rows) {
    for (const auto& [key, _] : row.labels) {
      if (key == kRemoteHostLabel)
        return fail("row '" + row.name +
                    "' already carries a remote_host label");
    }
    Labels labels = row.labels;
    labels.emplace_back(kRemoteHostLabel, remote_host);
    switch (row.kind) {
      case MetricRow::Kind::kCounter:
        target.counter(row.name, labels).set_total(row.count);
        break;
      case MetricRow::Kind::kGauge:
        target.gauge(row.name, labels).restore(row.value, row.max);
        break;
      case MetricRow::Kind::kHistogram: {
        Histogram& h = target.histogram(row.name, labels);
        h.reset();
        if (row.count == 0) break;
        if (auto s = h.restore(row.hist_buckets, row.count, row.sum, row.min,
                               row.max);
            !s)
          return s;
        break;
      }
    }
  }
  return ok_status();
}

}  // namespace debuglet::obs::wire
