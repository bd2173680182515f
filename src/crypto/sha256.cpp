#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace debuglet::crypto {

namespace {

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

namespace {

// One block of FIPS 180-4 rounds.
void compress_portable(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[i * 4]) << 24 |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t count) {
  for (; count > 0; --count, data += 64) compress_portable(state, data);
}

#if defined(__x86_64__)

namespace {

// Four rounds per step i (rounds 4i..4i+3), two per SHA256RNDS2. The
// instructions keep the state as ABEF and CDGH halves and the message
// schedule as four 4-word groups: after step i consumes a group,
// SHA256MSG1 (step i+1) and SHA256MSG2 (step i+3) turn it into the group
// step i+4 consumes.
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_blocks_x86(
    std::uint32_t* state, const std::uint8_t* data, std::size_t count) {
  const auto bswap = _mm_set_epi64x(0x0c0d0e0f08090a0b, 0x0405060700010203);
  const auto* k = reinterpret_cast<const __m128i*>(kRound);
  auto* words = reinterpret_cast<__m128i*>(state);
  const __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; count > 0; --count, data += 64) {
    const auto* block = reinterpret_cast<const __m128i*>(data);
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& prev = msg[(i - 1) & 3];
      __m128i& cur = msg[i & 3];
      __m128i& next = msg[(i + 1) & 3];
      if (i < 4) {
        cur = _mm_shuffle_epi8(_mm_loadu_si128(block + i), bswap);
      }
      const __m128i wk = _mm_add_epi32(cur, _mm_loadu_si128(k + i));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (i >= 3 && i < 15) {
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (i >= 1 && i < 13) prev = _mm_sha256msg1_epu32(prev, cur);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(words + 1, _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace

Sha256Blocks sha256_blocks_sha_ni() {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("sha") || !__builtin_cpu_supports("sse4.1"))
    return nullptr;
  return sha256_blocks_x86;
}

#else

Sha256Blocks sha256_blocks_sha_ni() { return nullptr; }

#endif

Sha256Blocks sha256_blocks_selected() {
  static const Sha256Blocks selected = [] {
    const Sha256Blocks sha_ni = sha256_blocks_sha_ni();
    return sha_ni != nullptr ? sha_ni : sha256_blocks_portable;
  }();
  return selected;
}

}  // namespace detail

void Sha256::update(BytesView data) {
  if (finalized_) throw std::logic_error("Sha256::update after finalize");
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(64 - buffer_len_, n);
    if (take > 0) std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < 64) return;
    detail::sha256_blocks_selected()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (n >= 64) {
    detail::sha256_blocks_selected()(state_.data(), p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) std::memcpy(buffer_.data(), p, n);
  buffer_len_ = n;
}

void Sha256::update(std::string_view s) {
  update(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest Sha256::finalize() {
  if (finalized_) throw std::logic_error("Sha256::finalize called twice");
  finalized_ = true;
  // 0x80, zeros to byte 56 of a block, then the 64-bit bit length: one
  // more block, or two when fewer than 9 bytes of this one are free.
  const detail::Sha256Blocks blocks = detail::sha256_blocks_selected();
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::fill(buffer_.begin() + buffer_len_, buffer_.end(), 0);
    blocks(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + buffer_len_, buffer_.begin() + 56, 0);
  const std::uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  blocks(state_.data(), buffer_.data(), 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[static_cast<std::size_t>(i * 4)] =
        static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[static_cast<std::size_t>(i * 4 + 1)] =
        static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[static_cast<std::size_t>(i * 4 + 2)] =
        static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[static_cast<std::size_t>(i * 4 + 3)] =
        static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest sha256(std::string_view s) {
  Sha256 h;
  h.update(s);
  return h.finalize();
}

Digest hmac_sha256(BytesView key, BytesView message) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest kd = sha256(key);
    std::memcpy(k.data(), kd.bytes.data(), kd.bytes.size());
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update(BytesView(ipad.data(), ipad.size()));
  inner.update(message);
  const Digest inner_digest = inner.finalize();
  Sha256 outer;
  outer.update(BytesView(opad.data(), opad.size()));
  outer.update(inner_digest.view());
  return outer.finalize();
}

}  // namespace debuglet::crypto
