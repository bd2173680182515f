// Property tests for the snapshot wire format (obs/wire): encode/decode
// round trips, chunking + reassembly under reordering, duplication,
// truncation, and bit corruption. The contract under test is that a
// damaged or mixed chunk stream is REJECTED — never silently mis-merged
// into a plausible-looking snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/wire.hpp"
#include "util/rng.hpp"

namespace debuglet::obs::wire {
namespace {

// Builds a registry with a representative mix of metrics and returns its
// snapshot. Varies with `seed` so property tests cover many shapes.
std::vector<MetricRow> sample_rows(std::uint64_t seed) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  Rng rng(seed);
  reg.counter("wire.requests").add(rng.next_below(1000));
  reg.counter("wire.requests", {{"as", "3"}, {"intf", "2"}})
      .add(rng.next_below(1 << 20));
  reg.counter("wire.huge").add(rng.next_u64());  // exercises wide varints
  reg.gauge("wire.depth").set(rng.uniform(-5.0, 50.0));
  reg.gauge("wire.depth").set(rng.uniform(-5.0, 50.0));
  Histogram& h = reg.histogram("wire.latency_ms", {{"proto", "udp"}});
  const int samples = 1 + static_cast<int>(rng.next_below(400));
  for (int i = 0; i < samples; ++i)
    h.record(std::exp(rng.normal(0.0, 2.0)));
  reg.histogram("wire.empty_hist");  // zero-count histogram row
  return reg.snapshot();
}

void expect_rows_equal(const std::vector<MetricRow>& a,
                       const std::vector<MetricRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].name + labels_to_string(a[i].labels));
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].labels, b[i].labels);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_DOUBLE_EQ(a[i].sum, b[i].sum);
    EXPECT_DOUBLE_EQ(a[i].min, b[i].min);
    EXPECT_DOUBLE_EQ(a[i].max, b[i].max);
    // Percentiles are recomputed from buckets at decode; they must agree
    // exactly with the sender's interpolation, not approximately.
    EXPECT_DOUBLE_EQ(a[i].p50, b[i].p50);
    EXPECT_DOUBLE_EQ(a[i].p90, b[i].p90);
    EXPECT_DOUBLE_EQ(a[i].p99, b[i].p99);
    EXPECT_EQ(a[i].hist_buckets, b[i].hist_buckets);
  }
}

// --- Snapshot encoding ---------------------------------------------------

TEST(SnapshotCodec, RoundTripsManyShapes) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto rows = sample_rows(seed);
    const Bytes encoded = encode_snapshot(rows);
    auto decoded = decode_snapshot(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.error_message();
    expect_rows_equal(rows, *decoded);
  }
}

TEST(SnapshotCodec, RoundTripsEmptySnapshot) {
  const Bytes encoded = encode_snapshot({});
  auto decoded = decode_snapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error_message();
  EXPECT_TRUE(decoded->empty());
}

TEST(SnapshotCodec, RejectsEveryTruncation) {
  const Bytes encoded = encode_snapshot(sample_rows(3));
  for (std::size_t len = 0; len < encoded.size(); ++len)
    EXPECT_FALSE(decode_snapshot(BytesView(encoded.data(), len)).ok())
        << "truncated to " << len << " of " << encoded.size() << " bytes";
}

TEST(SnapshotCodec, RejectsTrailingGarbage) {
  Bytes encoded = encode_snapshot(sample_rows(3));
  encoded.push_back(0x00);
  EXPECT_FALSE(decode_snapshot(encoded).ok());
}

TEST(SnapshotCodec, RejectsEverySingleBitFlip) {
  const Bytes encoded = encode_snapshot(sample_rows(4));
  // Flipping any one bit anywhere — header, body, or the digest itself —
  // must fail the digest check (or a structural check before it).
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes damaged = encoded;
    const std::size_t byte = rng.index(damaged.size());
    damaged[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_FALSE(decode_snapshot(damaged).ok())
        << "bit flip in byte " << byte << " accepted";
  }
}

TEST(SnapshotCodec, RejectsNewerVersion) {
  Bytes encoded = encode_snapshot(sample_rows(5));
  // Bump the u16 LE version field (offset 4, after the magic) and repair
  // the trailing digest so ONLY the version is wrong.
  encoded[4] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  const std::uint64_t fixed =
      fnv1a(BytesView(encoded.data(), encoded.size() - 8));
  for (int i = 0; i < 8; ++i)
    encoded[encoded.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(fixed >> (8 * i));
  EXPECT_FALSE(decode_snapshot(encoded).ok());
}

// --- Chunking ------------------------------------------------------------

TEST(Chunking, CountAndBounds) {
  EXPECT_EQ(chunk_count(0, 100), 1u);  // empty snapshot still ships a chunk
  EXPECT_EQ(chunk_count(1, 100), 1u);
  EXPECT_EQ(chunk_count(100, 100), 1u);
  EXPECT_EQ(chunk_count(101, 100), 2u);
  const Bytes encoded = encode_snapshot(sample_rows(1));
  EXPECT_FALSE(build_chunk(encoded, 0, kMinChunkPayload - 1).ok());
  EXPECT_FALSE(build_chunk(encoded, 0, kMaxChunkPayload + 1).ok());
  const std::size_t n = chunk_count(encoded.size(), kMinChunkPayload);
  EXPECT_FALSE(build_chunk(encoded, n, kMinChunkPayload).ok());
}

TEST(Chunking, ChunkRoundTrip) {
  const Bytes encoded = encode_snapshot(sample_rows(2));
  const std::uint32_t payload = 64;
  const std::size_t n = chunk_count(encoded.size(), payload);
  ASSERT_GT(n, 2u);
  std::size_t reassembled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto wire = build_chunk(encoded, i, payload);
    ASSERT_TRUE(wire.ok()) << wire.error_message();
    auto chunk = parse_chunk(*wire);
    ASSERT_TRUE(chunk.ok()) << chunk.error_message();
    EXPECT_EQ(chunk->index, i);
    EXPECT_EQ(chunk->count, n);
    EXPECT_EQ(chunk->total_length, encoded.size());
    reassembled += chunk->payload.size();
  }
  EXPECT_EQ(reassembled, encoded.size());
}

TEST(Chunking, ParseRejectsCorruptChunk) {
  const Bytes encoded = encode_snapshot(sample_rows(2));
  auto wire = build_chunk(encoded, 0, 64);
  ASSERT_TRUE(wire.ok());
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    Bytes damaged = *wire;
    damaged[rng.index(damaged.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_FALSE(parse_chunk(damaged).ok());
  }
  for (std::size_t len = 0; len < wire->size(); ++len)
    EXPECT_FALSE(parse_chunk(BytesView(wire->data(), len)).ok());
}

// --- Reassembly ----------------------------------------------------------

std::vector<Bytes> all_chunks(const Bytes& encoded, std::uint32_t payload) {
  std::vector<Bytes> out;
  const std::size_t n = chunk_count(encoded.size(), payload);
  for (std::size_t i = 0; i < n; ++i) {
    auto wire = build_chunk(encoded, i, payload);
    EXPECT_TRUE(wire.ok());
    out.push_back(*wire);
  }
  return out;
}

TEST(Assembler, ReassemblesAnyArrivalOrder) {
  const auto rows = sample_rows(6);
  const Bytes encoded = encode_snapshot(rows);
  auto chunks = all_chunks(encoded, 64);
  ASSERT_GE(chunks.size(), 3u);
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    // Random shuffle of the arrival order.
    std::vector<std::size_t> order(chunks.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.index(i)]);

    SnapshotAssembler asmbl;
    for (std::size_t i : order) {
      EXPECT_FALSE(asmbl.complete());
      EXPECT_TRUE(asmbl.add_chunk(chunks[i]).ok());
    }
    ASSERT_TRUE(asmbl.complete());
    EXPECT_TRUE(asmbl.missing().empty());
    auto decoded = asmbl.finish();
    ASSERT_TRUE(decoded.ok()) << decoded.error_message();
    expect_rows_equal(rows, *decoded);
  }
}

TEST(Assembler, ToleratesDuplicatesRejectsConflicts) {
  const Bytes encoded = encode_snapshot(sample_rows(7));
  auto chunks = all_chunks(encoded, 64);
  ASSERT_GE(chunks.size(), 2u);
  SnapshotAssembler asmbl;
  EXPECT_TRUE(asmbl.add_chunk(chunks[0]).ok());
  // Identical duplicate: fine, does not double-count.
  EXPECT_TRUE(asmbl.add_chunk(chunks[0]).ok());
  EXPECT_EQ(asmbl.received_chunks(), 1u);
  for (std::size_t i = 1; i < chunks.size(); ++i)
    EXPECT_TRUE(asmbl.add_chunk(chunks[i]).ok());
  EXPECT_TRUE(asmbl.complete());
  EXPECT_TRUE(asmbl.finish().ok());
}

TEST(Assembler, RejectsChunksOfADifferentSnapshot) {
  // Two different registries → different digests → different snapshot ids.
  const Bytes first = encode_snapshot(sample_rows(8));
  const Bytes second = encode_snapshot(sample_rows(9));
  auto first_chunks = all_chunks(first, 64);
  auto second_chunks = all_chunks(second, 64);
  ASSERT_GE(first_chunks.size(), 2u);
  auto first_id = parse_chunk(first_chunks[0]);
  auto second_id = parse_chunk(second_chunks[0]);
  ASSERT_TRUE(first_id.ok());
  ASSERT_TRUE(second_id.ok());
  ASSERT_NE(first_id->snapshot_id, second_id->snapshot_id);

  SnapshotAssembler asmbl;
  EXPECT_TRUE(asmbl.add_chunk(first_chunks[0]).ok());
  // A foreign chunk is refused and leaves collected state untouched.
  EXPECT_FALSE(asmbl.add_chunk(second_chunks[0]).ok());
  EXPECT_EQ(asmbl.received_chunks(), 1u);
  for (std::size_t i = 1; i < first_chunks.size(); ++i)
    EXPECT_TRUE(asmbl.add_chunk(first_chunks[i]).ok());
  auto decoded = asmbl.finish();
  ASSERT_TRUE(decoded.ok()) << decoded.error_message();
}

TEST(Assembler, IncompleteNeverFinishes) {
  const Bytes encoded = encode_snapshot(sample_rows(8));
  auto chunks = all_chunks(encoded, 64);
  ASSERT_GE(chunks.size(), 3u);
  SnapshotAssembler asmbl;
  // Feed all but one chunk — finish() must refuse, and missing() must name
  // exactly the hole.
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (i == 1) continue;
    EXPECT_TRUE(asmbl.add_chunk(chunks[i]).ok());
  }
  EXPECT_FALSE(asmbl.complete());
  EXPECT_FALSE(asmbl.finish().ok());
  ASSERT_EQ(asmbl.missing().size(), 1u);
  EXPECT_EQ(asmbl.missing()[0], 1u);

  asmbl.reset();
  EXPECT_EQ(asmbl.expected_chunks(), 0u);
  EXPECT_FALSE(asmbl.finish().ok());
}

// --- Merge ---------------------------------------------------------------

TEST(Merge, ImportsUnderRemoteHostLabel) {
  MetricsRegistry source;
  source.set_enabled(true);
  source.counter("m.hits", {{"as", "2"}}).add(41);
  source.gauge("m.depth").set(7.5);
  Histogram& h = source.histogram("m.rtt");
  h.record(1.0);
  h.record(10.0);
  h.record(100.0);

  // The target registry stays DISABLED: the import path must bypass the
  // enabled flag, like restore()/set_total() document.
  MetricsRegistry target;
  auto status = merge_rows(target, source.snapshot(), "10.0.2.1");
  ASSERT_TRUE(status.ok()) << status.error_message();

  EXPECT_EQ(target
                .counter("m.hits",
                         {{"as", "2"}, {kRemoteHostLabel, "10.0.2.1"}})
                .value(),
            41u);
  EXPECT_DOUBLE_EQ(
      target.gauge("m.depth", {{kRemoteHostLabel, "10.0.2.1"}}).value(), 7.5);
  Histogram& merged =
      target.histogram("m.rtt", {{kRemoteHostLabel, "10.0.2.1"}});
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_DOUBLE_EQ(merged.sum(), 111.0);
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 100.0);
  EXPECT_DOUBLE_EQ(merged.p50(), source.histogram("m.rtt").p50());
}

TEST(Merge, RescrapeOverwritesInsteadOfDoubleCounting) {
  MetricsRegistry source;
  source.set_enabled(true);
  Counter& c = source.counter("m.hits");
  c.add(10);
  MetricsRegistry target;
  ASSERT_TRUE(merge_rows(target, source.snapshot(), "h").ok());
  c.add(5);
  ASSERT_TRUE(merge_rows(target, source.snapshot(), "h").ok());
  EXPECT_EQ(target.counter("m.hits", {{kRemoteHostLabel, "h"}}).value(), 15u);
}

TEST(Merge, RejectsRowsAlreadyCarryingARemoteHost) {
  // Scraping a scraper: its registry holds rows labelled with ANOTHER
  // host's identity; importing them must fail rather than re-label.
  MetricRow row;
  row.name = "m.hits";
  row.labels = {{kRemoteHostLabel, "10.0.9.9"}};
  row.kind = MetricRow::Kind::kCounter;
  row.count = 3;
  MetricsRegistry target;
  EXPECT_FALSE(merge_rows(target, {row}, "10.0.2.1").ok());
}

}  // namespace
}  // namespace debuglet::obs::wire
