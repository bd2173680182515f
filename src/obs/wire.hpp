// Snapshot wire format: registry snapshots over the simulated network.
//
// The paper's telemetry must itself be observable remotely: an executor's
// stats Debuglet serves its host's metrics registry over the same packet
// API every other measurement uses (telemetry-about-telemetry). This
// module defines the two layers of that path:
//
//  * Snapshot encoding — a compact, versioned binary serialization of a
//    std::vector<MetricRow> (histograms travel with their full bucket
//    vectors, run-length compressed, so a remote histogram merges exactly,
//    not from interpolated percentiles). The encoding ends in a 64-bit
//    FNV-1a digest over everything before it; decode rejects any
//    truncation, bit corruption, or trailing garbage.
//
//  * Chunking — a snapshot rarely fits one packet payload, so it ships as
//    numbered chunks, each self-describing: snapshot id (derived from the
//    digest, so chunks of two different snapshots never merge), chunk
//    index + count, the total snapshot length, the chunk payload, and a
//    per-chunk digest. SnapshotAssembler accepts chunks in any order,
//    tolerates duplicates, and refuses to finish until every chunk of one
//    snapshot has arrived intact.
//
// merge_rows() imports a decoded snapshot into a local registry with a
// "remote_host" label added to every row — the convention scrapers use so
// local and remote metrics never collide (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace debuglet::obs::wire {

/// Format version emitted by this build; decoders reject anything newer.
inline constexpr std::uint16_t kSnapshotVersion = 1;

/// Chunk payloads are bounded so a chunk (payload + ~32 bytes of framing)
/// always fits a UDP packet and a Debuglet's 512-byte send buffer.
inline constexpr std::uint32_t kMinChunkPayload = 16;
inline constexpr std::uint32_t kMaxChunkPayload = 4096;
inline constexpr std::uint32_t kDefaultChunkPayload = 400;

/// A chunk stream is indexed by u16, bounding snapshots to ~256 MB.
inline constexpr std::size_t kMaxChunks = 65535;

/// Serializes rows (as produced by MetricsRegistry::snapshot()) with a
/// trailing digest.
Bytes encode_snapshot(const std::vector<MetricRow>& rows);

/// Parses an encoded snapshot, verifying version, digest, and that no
/// bytes trail the digest.
Result<std::vector<MetricRow>> decode_snapshot(BytesView data);

/// Number of chunks an encoded snapshot of `encoded_size` bytes needs at
/// `chunk_payload` bytes per chunk (always >= 1: an empty snapshot still
/// ships one chunk so the scraper learns the chunk count).
std::size_t chunk_count(std::size_t encoded_size, std::uint32_t chunk_payload);

/// Builds the wire bytes of chunk `index` of an encoded snapshot. Fails on
/// an out-of-range index, a payload size outside
/// [kMinChunkPayload, kMaxChunkPayload], or a snapshot needing more than
/// kMaxChunks chunks.
Result<Bytes> build_chunk(BytesView encoded_snapshot, std::size_t index,
                          std::uint32_t chunk_payload);

/// A parsed chunk header + payload.
struct Chunk {
  std::uint32_t snapshot_id = 0;  // low 32 bits of the snapshot digest
  std::uint16_t index = 0;
  std::uint16_t count = 1;        // total chunks of this snapshot
  std::uint32_t total_length = 0; // encoded snapshot length, bytes
  Bytes payload;
};

/// Parses and integrity-checks one chunk message.
Result<Chunk> parse_chunk(BytesView data);

/// Reassembles one snapshot from chunks arriving in any order. All chunks
/// must agree on snapshot id, count and total length; duplicates are
/// accepted (and must match the first copy); chunks of a different
/// snapshot are rejected without disturbing collected state.
class SnapshotAssembler {
 public:
  /// Feeds one chunk wire message.
  Status add_chunk(BytesView chunk_wire);

  /// True once every chunk has arrived.
  bool complete() const;

  /// Chunk count learned from the first accepted chunk (0 before that).
  std::size_t expected_chunks() const { return expected_; }
  std::size_t received_chunks() const { return received_; }

  /// True when chunk `index` has already been accepted — lets callers
  /// distinguish a redundant retransmission from fresh progress.
  bool has_chunk(std::uint16_t index) const {
    return index < have_.size() && have_[index];
  }

  /// Indices not yet received (empty before the first chunk arrives).
  std::vector<std::uint16_t> missing() const;

  /// Concatenates, digests, and decodes the snapshot. Fails unless
  /// complete() and the reassembled bytes pass decode_snapshot.
  Result<std::vector<MetricRow>> finish() const;

  /// Forgets everything (ready for the next scrape).
  void reset();

 private:
  std::uint32_t snapshot_id_ = 0;
  std::uint32_t total_length_ = 0;
  std::size_t expected_ = 0;
  std::size_t received_ = 0;
  std::vector<bool> have_;
  std::vector<Bytes> parts_;
};

/// The label key merge_rows adds to every imported row.
inline constexpr const char* kRemoteHostLabel = "remote_host";

/// Imports rows into `target` with {remote_host: remote_host} added to
/// each row's labels. Counters and gauges are SET to the snapshot values
/// (a re-scrape of the same host overwrites, never double-counts);
/// histograms are restored from their bucket vectors, so merged
/// percentiles equal the remote ones. Rows whose labels already carry a
/// remote_host label are rejected (scraping a scraper must not forge
/// another host's identity).
Status merge_rows(MetricsRegistry& target, const std::vector<MetricRow>& rows,
                  const std::string& remote_host);

}  // namespace debuglet::obs::wire
