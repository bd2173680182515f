// Byte-buffer serialization primitives.
//
// BytesWriter/BytesReader implement a small, explicit wire format used by
// every Debuglet subsystem that serializes structures (VM modules, chain
// transactions, measurement records, packets' payloads). Integers are
// little-endian fixed width or LEB128-style varints; blobs are
// length-prefixed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace debuglet {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Hex-encodes a byte span ("deadbeef", lowercase).
std::string to_hex(BytesView data);

/// Decodes a hex string; fails on odd length or non-hex characters.
Result<Bytes> from_hex(std::string_view hex);

/// Copies a string's bytes into a Bytes value.
Bytes bytes_of(std::string_view s);

/// Interprets a byte span as text (no validation; used for reports).
std::string string_of(BytesView b);

/// The FNV-1a offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over `data`, continuing from `seed` (the basis, or the
/// hash of the bytes before `data`). Not cryptographic: it detects
/// truncation and corruption, not forgery. The digest of INT trailers and
/// obs::wire snapshots and chunks, and the simnet flow and signature keys.
constexpr std::uint64_t fnv1a(BytesView data,
                              std::uint64_t seed = kFnv1aBasis) {
  std::uint64_t h = seed;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Appends primitives to a growable byte vector.
class BytesWriter {
 public:
  BytesWriter() = default;

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  /// Unsigned LEB128 varint (1–10 bytes).
  void varint(std::uint64_t v);
  /// Raw bytes, no length prefix.
  void raw(BytesView data);
  /// Varint length prefix followed by the bytes.
  void blob(BytesView data);
  /// Varint length prefix followed by the string's bytes.
  void str(std::string_view s);

  const Bytes& bytes() const { return out_; }
  Bytes take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

/// Consumes primitives from a byte span; every accessor reports truncation
/// or malformed data through Result.
class BytesReader {
 public:
  explicit BytesReader(BytesView data) : data_(data) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::int64_t> i64();
  Result<double> f64();
  Result<std::uint64_t> varint();
  /// Reads exactly n raw bytes.
  Result<Bytes> raw(std::size_t n);
  /// Reads a varint length prefix then that many bytes.
  Result<Bytes> blob();
  /// Reads a length-prefixed string.
  Result<std::string> str();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }

 private:
  Result<BytesView> take(std::size_t n);
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace debuglet
