#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"
#include "u256_oracle.hpp"
#include "util/rng.hpp"

namespace debuglet::crypto {
namespace {

// --- The textbook Schnorr check, built on the oracle ---------------------

U256 oracle_exponent(const Digest& d) {
  const U256 pm1 = sub(group_prime(), U256(1));
  const U256 e = mod(U256::from_be_bytes(d.view()), pm1);
  return e.is_zero() ? U256(1) : e;
}

/// g^s == r·y^e (mod p) by square-and-multiply, with the range checks
/// verify() had before it required y in [2, p−2]: y and r in [1, p−1].
bool oracle_verify(const PublicKey& pk, BytesView message,
                   const Signature& sig) {
  const U256& p = group_prime();
  if (pk.y.is_zero() || pk.y >= p || sig.r.is_zero() || sig.r >= p)
    return false;
  Sha256 h;
  const Bytes rb = sig.r.to_be_bytes();
  const Bytes yb = pk.y.to_be_bytes();
  h.update(BytesView(rb.data(), rb.size()));
  h.update(BytesView(yb.data(), yb.size()));
  h.update(message);
  const U256 e = oracle_exponent(h.finalize());
  return oracle::pow_mod(group_generator(), sig.s, p) ==
         mul_mod(sig.r, oracle::pow_mod(pk.y, e, p), p);
}

bool oracle_verify(const PublicKey& pk, std::string_view message,
                   const Signature& sig) {
  const Bytes bytes = bytes_of(message);
  return oracle_verify(pk, BytesView(bytes.data(), bytes.size()), sig);
}

// --- Fixed-base table built under concurrent first use ------------------

// Defined first so it runs first (gtest keeps definition order): nothing
// in this process has touched the fixed-base table yet, so eight threads
// race to build it with their first key derivation and signature. Every
// key and signature must pass the oracle check and equal what a warm
// thread gets; the CI TSan leg checks the race itself.
TEST(SchnorrComb, EightThreadsSignOnAColdTable) {
  constexpr std::size_t kThreads = 8;
  std::vector<Signature> sigs(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  std::vector<std::optional<KeyPair>> built(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      built[t] = KeyPair::from_seed(1800 + t);
      sigs[t] = built[t]->sign("cold table");
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    const KeyPair warm = KeyPair::from_seed(1800 + t);
    EXPECT_EQ(built[t]->public_key(), warm.public_key()) << t;
    EXPECT_EQ(sigs[t], warm.sign("cold table")) << t;
    EXPECT_TRUE(oracle_verify(warm.public_key(), "cold table", sigs[t])) << t;
  }
}

// --- SHA-256 (FIPS 180-4 test vectors) ---------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data;
  Rng rng(11);
  for (int i = 0; i < 10000; ++i)
    data.push_back(static_cast<std::uint8_t>(rng.next_u64()));
  const Digest one_shot = sha256(BytesView(data.data(), data.size()));
  Sha256 h;
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < data.size()) {
    const std::size_t n = std::min(step, data.size() - pos);
    h.update(BytesView(data.data() + pos, n));
    pos += n;
    step = (step * 7 + 3) % 977 + 1;
  }
  EXPECT_EQ(h.finalize(), one_shot);
}

TEST(Sha256, FinalizeTwiceThrows) {
  Sha256 h;
  h.update("x");
  h.finalize();
  EXPECT_THROW(h.finalize(), std::logic_error);
}

// --- SHA-256 block functions against the portable oracle ---------------

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// One-shot SHA-256 built only on the portable block function, with its own
// FIPS 180-4 padding: 0x80, zeros to 56 mod 64, the big-endian bit length.
Digest oracle_sha256(BytesView data) {
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (i * 8)));
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  detail::sha256_blocks_portable(state, padded.data(), padded.size() / 64);
  Digest out;
  for (std::size_t i = 0; i < 32; ++i)
    out.bytes[i] =
        static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

// Sha256 fed in pieces cut at random points.
Digest split_sha256(const Bytes& data, Rng& rng) {
  Sha256 h;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t n = 1 + rng.next_below(data.size() - pos);
    h.update(BytesView(data.data() + pos, n));
    pos += n;
  }
  return h.finalize();
}

TEST(Sha256Blocks, OracleMatchesFipsVector) {
  EXPECT_EQ(oracle_sha256(BytesView(bytes_of("abc"))).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Blocks, ShaNiMatchesPortable) {
  const detail::Sha256Blocks sha_ni = detail::sha256_blocks_sha_ni();
  if (sha_ni == nullptr) GTEST_SKIP() << "no SHA extensions on this CPU";
  Rng rng(16);
  for (int c = 0; c < 2000; ++c) {
    std::uint32_t expected[8], actual[8];
    for (int i = 0; i < 8; ++i)
      expected[i] = actual[i] = static_cast<std::uint32_t>(rng.next_u64());
    const std::size_t blocks = 1 + rng.next_below(64);
    const Bytes data = random_bytes(rng, blocks * 64);
    detail::sha256_blocks_portable(expected, data.data(), blocks);
    sha_ni(actual, data.data(), blocks);
    ASSERT_TRUE(std::equal(expected, expected + 8, actual))
        << "case " << c << ", " << blocks << " blocks";
  }
}

TEST(Sha256Blocks, SelectedIsShaNiWhenPresent) {
  const detail::Sha256Blocks sha_ni = detail::sha256_blocks_sha_ni();
  EXPECT_EQ(detail::sha256_blocks_selected(),
            sha_ni != nullptr ? sha_ni : detail::sha256_blocks_portable);
}

TEST(Sha256Blocks, EveryShortLengthMatchesOracle) {
  // Covers the 55/56/63/64-byte padding edges of finalize().
  Rng rng(17);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes data = random_bytes(rng, len);
    const Digest expected = oracle_sha256(BytesView(data.data(), data.size()));
    ASSERT_EQ(sha256(BytesView(data.data(), data.size())), expected)
        << "length " << len;
    ASSERT_EQ(split_sha256(data, rng), expected) << "length " << len;
  }
}

TEST(Sha256Blocks, RandomLengthsMatchOracle) {
  Rng rng(18);
  for (int c = 0; c < 200; ++c) {
    const Bytes data = random_bytes(rng, rng.next_below(64 * 1024 + 1));
    const Digest expected = oracle_sha256(BytesView(data.data(), data.size()));
    ASSERT_EQ(sha256(BytesView(data.data(), data.size())), expected)
        << "length " << data.size();
    ASSERT_EQ(split_sha256(data, rng), expected) << "length " << data.size();
  }
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = bytes_of("Hi There");
  EXPECT_EQ(hmac_sha256(BytesView(key.data(), key.size()),
                        BytesView(msg.data(), msg.size()))
                .hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const Bytes key = bytes_of("Jefe");
  const Bytes msg = bytes_of("what do ya want for nothing?");
  EXPECT_EQ(hmac_sha256(BytesView(key.data(), key.size()),
                        BytesView(msg.data(), msg.size()))
                .hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);  // RFC 4231 case 6
  const Bytes msg = bytes_of("Test Using Larger Than Block-Size Key - "
                             "Hash Key First");
  EXPECT_EQ(hmac_sha256(BytesView(key.data(), key.size()),
                        BytesView(msg.data(), msg.size()))
                .hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- U256 ----------------------------------------------------------------

TEST(U256, HexRoundTrip) {
  auto v = U256::from_hex("0x0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->hex(),
            "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
}

TEST(U256, BytesRoundTrip) {
  const U256 v(0xDEADBEEFCAFEULL);
  const Bytes b = v.to_be_bytes();
  ASSERT_EQ(b.size(), 32u);
  EXPECT_EQ(U256::from_be_bytes(BytesView(b.data(), b.size())), v);
}

TEST(U256, AddCarryPropagates) {
  auto max = *U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  bool carry = false;
  const U256 sum = add(max, U256(1), &carry);
  EXPECT_TRUE(carry);
  EXPECT_TRUE(sum.is_zero());
}

TEST(U256, SubBorrowWraps) {
  bool borrow = false;
  const U256 diff = sub(U256(0), U256(1), &borrow);
  EXPECT_TRUE(borrow);
  EXPECT_EQ(diff.hex(),
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
}

TEST(U256, MulWideSmall) {
  const U512 p = mul_wide(U256(0xFFFFFFFFFFFFFFFFULL), U256(2));
  EXPECT_EQ(p.limbs[0], 0xFFFFFFFFFFFFFFFEULL);
  EXPECT_EQ(p.limbs[1], 1ULL);
}

TEST(U256, ModMatchesSmallArithmetic) {
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64() >> 1;
    const std::uint64_t b = rng.next_u64() >> 1;
    const std::uint64_t m = (rng.next_u64() >> 32) + 2;
    const U256 r = mul_mod(U256(a), U256(b), U256(m));
    const auto expected = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b) % m);
    EXPECT_EQ(r, U256(expected));
  }
}

TEST(U256, PowModSmall) {
  // 3^20 mod 1000 = 3486784401 mod 1000 = 401.
  EXPECT_EQ(oracle::pow_mod(U256(3), U256(20), U256(1000)), U256(401));
  // Fermat: a^(p-1) = 1 mod p for prime p = 1'000'000'007.
  const U256 p(1'000'000'007ULL);
  EXPECT_EQ(oracle::pow_mod(U256(12345), U256(1'000'000'006ULL), p), U256(1));
}

TEST(U256, PowModLargeFermat) {
  // The group prime p is prime, so g^(p-1) == 1 (mod p).
  const U256& p = group_prime();
  bool borrow = false;
  const U256 pm1 = sub(p, U256(1), &borrow);
  EXPECT_EQ(oracle::pow_mod(group_generator(), pm1, p), U256(1));
}

TEST(U256, AlgebraicIdentitiesRandomized) {
  Rng rng(33);
  const U256& m = group_prime();
  for (int i = 0; i < 50; ++i) {
    Bytes ab(32), bb(32);
    for (auto& x : ab) x = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& x : bb) x = static_cast<std::uint8_t>(rng.next_u64());
    const U256 a = mod(U256::from_be_bytes(BytesView(ab.data(), 32)), m);
    const U256 b = mod(U256::from_be_bytes(BytesView(bb.data(), 32)), m);
    // Commutativity.
    EXPECT_EQ(add_mod(a, b, m), add_mod(b, a, m));
    EXPECT_EQ(mul_mod(a, b, m), mul_mod(b, a, m));
    // a - b + b == a.
    EXPECT_EQ(add_mod(sub_mod(a, b, m), b, m), a);
    // (a*b) * 1 == a*b.
    EXPECT_EQ(mul_mod(mul_mod(a, b, m), U256(1), m), mul_mod(a, b, m));
  }
}

// --- Schnorr -------------------------------------------------------------

TEST(Schnorr, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::from_seed(1);
  const Signature sig = kp.sign("hello debuglet");
  EXPECT_TRUE(verify(kp.public_key(), "hello debuglet", sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  const KeyPair kp = KeyPair::from_seed(2);
  const Signature sig = kp.sign("original");
  EXPECT_FALSE(verify(kp.public_key(), "tampered", sig));
}

TEST(Schnorr, RejectsWrongKey) {
  const KeyPair kp = KeyPair::from_seed(3);
  const KeyPair other = KeyPair::from_seed(4);
  const Signature sig = kp.sign("msg");
  EXPECT_FALSE(verify(other.public_key(), "msg", sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
  const KeyPair kp = KeyPair::from_seed(5);
  Signature sig = kp.sign("msg");
  sig.s = add_mod(sig.s, U256(1), group_prime());
  EXPECT_FALSE(verify(kp.public_key(), "msg", sig));
}

TEST(Schnorr, DeterministicSignatures) {
  const KeyPair kp = KeyPair::from_seed(6);
  EXPECT_EQ(kp.sign("same"), kp.sign("same"));
  EXPECT_NE(kp.sign("one"), kp.sign("two"));
}

TEST(Schnorr, SignatureBytesRoundTrip) {
  const KeyPair kp = KeyPair::from_seed(7);
  const Signature sig = kp.sign("serialize me");
  const Bytes b = sig.to_bytes();
  ASSERT_EQ(b.size(), 64u);
  auto back = Signature::from_bytes(BytesView(b.data(), b.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, sig);
  EXPECT_FALSE(Signature::from_bytes(BytesView(b.data(), 63)).ok());
}

TEST(Schnorr, DistinctSeedsDistinctKeys) {
  EXPECT_NE(KeyPair::from_seed(8).public_key().y,
            KeyPair::from_seed(9).public_key().y);
}

// --- Comb, window and one-expression verify against the oracle ----------

U256 random_u256(Rng& rng) {
  U256 x;
  for (auto& limb : x.limbs) limb = rng.next_u64();
  return x;
}

U256 max_u256() {
  return *U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
}

/// The exponents and operands every path must get right at the edges:
/// 0, 1, one and two nibbles, 2^255, p−2, p−1, p and 2^256−1.
std::vector<U256> edge_values() {
  const U256& p = group_prime();
  U256 top;
  top.limbs[3] = 1ULL << 63;
  return {U256(0), U256(1), U256(15), U256(16), top, sub(p, U256(2)),
          sub(p, U256(1)), p, max_u256()};
}

TEST(SchnorrExp, CombMatchesOracle) {
  const U256& g = group_generator();
  const U256& p = group_prime();
  for (const U256& e : edge_values())
    EXPECT_EQ(generator_pow(e), oracle::pow_mod(g, e, p)) << e.hex();
  Rng rng(1801);
  for (int i = 0; i < 2000; ++i) {
    // Every length from 0 to 256 bits, so short exponents (leading zero
    // nibbles) are covered as well as full ones.
    U256 e = random_u256(rng);
    const int drop = static_cast<int>(rng.next_u64() % 257);
    for (int b = 255; b >= 256 - drop; --b)
      e.limbs[static_cast<std::size_t>(b / 64)] &= ~(1ULL << (b % 64));
    ASSERT_EQ(generator_pow(e), oracle::pow_mod(g, e, p)) << e.hex();
  }
}

TEST(SchnorrExp, WindowMatchesOracle) {
  const U256& p = group_prime();
  Rng rng(1802);
  const U256 random_base = random_u256(rng);
  const std::vector<U256> bases = {U256(1), U256(2), sub(p, U256(1)),
                                   random_base};
  for (const U256& e : edge_values())
    for (const U256& b : bases)
      EXPECT_EQ(group_pow(b, e), oracle::pow_mod(b, e, p))
          << b.hex() << " ^ " << e.hex();
  // Bases at and above p reduce first.
  for (const U256& b : {U256(0), p, max_u256()})
    EXPECT_EQ(group_pow(b, U256(12345)), oracle::pow_mod(b, U256(12345), p))
        << b.hex();
  for (int i = 0; i < 2000; ++i) {
    const U256 e = random_u256(rng);
    // Cycle through the four base kinds, a fresh random one each time.
    const U256 b = i % 4 == 3 ? random_u256(rng) : bases[i % 4];
    ASSERT_EQ(group_pow(b, e), oracle::pow_mod(b, e, p))
        << b.hex() << " ^ " << e.hex();
  }
}

TEST(SchnorrExp, DigestToExponentMatchesMod) {
  const U256& p = group_prime();
  std::vector<U256> values = {U256(0), sub(p, U256(2)), sub(p, U256(1)), p,
                              max_u256()};
  Rng rng(1803);
  for (int i = 0; i < 200; ++i) values.push_back(random_u256(rng));
  for (const U256& x : values) {
    Digest d;
    const Bytes be = x.to_be_bytes();
    std::copy(be.begin(), be.end(), d.bytes.begin());
    EXPECT_EQ(digest_to_exponent(d), oracle_exponent(d)) << x.hex();
  }
}

TEST(SchnorrVerify, KeyRangeIsTwoToPMinusTwo) {
  const U256& p = group_prime();
  EXPECT_FALSE(valid_public_key(U256(0)));
  EXPECT_FALSE(valid_public_key(U256(1)));
  EXPECT_TRUE(valid_public_key(U256(2)));
  EXPECT_TRUE(valid_public_key(sub(p, U256(2))));
  EXPECT_FALSE(valid_public_key(sub(p, U256(1))));
  EXPECT_FALSE(valid_public_key(p));
  EXPECT_FALSE(valid_public_key(max_u256()));
}

TEST(SchnorrVerify, KeyOfOrderOneIsForgeableSoRejected) {
  // With y = 1, r = g^s satisfies g^s == r·y^e for any s and message.
  const PublicKey one{U256(1)};
  const U256 s(123456789);
  const Signature forged{generator_pow(s), s};
  EXPECT_TRUE(oracle_verify(one, "anything", forged));
  EXPECT_FALSE(verify(one, "anything", forged));
}

TEST(SchnorrVerify, MatchesOracleOnValidTamperedAndRandom) {
  const U256& p = group_prime();
  const U256 pm1 = sub(p, U256(1));
  Rng rng(1804);
  std::size_t valid = 0;
  auto check = [&](const PublicKey& pk, const Bytes& msg,
                   const Signature& sig) {
    const BytesView m(msg.data(), msg.size());
    const bool expected = valid_public_key(pk.y) && oracle_verify(pk, m, sig);
    EXPECT_EQ(verify(pk, m, sig), expected)
        << "y " << pk.y.hex() << " r " << sig.r.hex() << " s " << sig.s.hex();
    valid += expected ? 1 : 0;
  };
  for (std::uint64_t i = 0; i < 30; ++i) {
    const KeyPair kp = KeyPair::from_seed(1900 + i);
    const KeyPair other = KeyPair::from_seed(1950 + i);
    const Bytes msg = random_bytes(rng, 1 + rng.next_u64() % 200);
    const Signature sig = kp.sign(BytesView(msg.data(), msg.size()));
    check(kp.public_key(), msg, sig);
    Bytes tampered = msg;
    tampered[rng.next_u64() % tampered.size()] ^= 0x01;
    check(kp.public_key(), tampered, sig);
    check(other.public_key(), msg, sig);
    check(kp.public_key(), msg, Signature{add_mod(sig.r, U256(1), p), sig.s});
    check(kp.public_key(), msg, Signature{sig.r, add_mod(sig.s, U256(1), pm1)});
    // s in [p−1, 2^256): the exponent is used unreduced.
    check(kp.public_key(), msg,
          Signature{sig.r, add(pm1, U256(rng.next_u64() >> 32))});
    check(kp.public_key(), msg,
          Signature{mod(random_u256(rng), p), random_u256(rng)});
    for (const U256& y : edge_values()) check(PublicKey{y}, msg, sig);
  }
  EXPECT_EQ(valid, 30u);  // exactly the untampered signatures
}

class SchnorrMany : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchnorrMany, CrossVerification) {
  const KeyPair kp = KeyPair::from_seed(GetParam());
  BytesWriter w;
  w.u64(GetParam() * 7919);
  w.str("cross-verification payload");
  const BytesView msg(w.bytes().data(), w.bytes().size());
  const Signature sig = kp.sign(msg);
  EXPECT_TRUE(verify(kp.public_key(), msg, sig));
  // A different key from an adjacent seed must not verify.
  const KeyPair other = KeyPair::from_seed(GetParam() + 1000);
  EXPECT_FALSE(verify(other.public_key(), msg, sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrMany,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// --- Merkle --------------------------------------------------------------

TEST(Merkle, SingleLeafProof) {
  const std::vector<Bytes> leaves = {bytes_of("only")};
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.leaf_count(), 1u);
  const MerkleProof proof = tree.prove(0);
  const Bytes leaf = bytes_of("only");
  EXPECT_TRUE(merkle_verify(tree.root(), BytesView(leaf.data(), leaf.size()),
                            proof));
}

TEST(Merkle, AllLeavesProve) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 13; ++i)
    leaves.push_back(bytes_of("leaf-" + std::to_string(i)));
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_TRUE(merkle_verify(
        tree.root(), BytesView(leaves[i].data(), leaves[i].size()),
        tree.prove(i)))
        << "leaf " << i;
  }
}

TEST(Merkle, WrongLeafFailsProof) {
  std::vector<Bytes> leaves = {bytes_of("a"), bytes_of("b"), bytes_of("c")};
  MerkleTree tree(leaves);
  const Bytes wrong = bytes_of("x");
  EXPECT_FALSE(merkle_verify(tree.root(),
                             BytesView(wrong.data(), wrong.size()),
                             tree.prove(1)));
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  std::vector<Bytes> leaves = {bytes_of("a"), bytes_of("b"), bytes_of("c"),
                               bytes_of("d")};
  MerkleTree original(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i].push_back('!');
    EXPECT_NE(MerkleTree(mutated).root(), original.root()) << "leaf " << i;
  }
}

TEST(Merkle, EmptyTreeHasSentinelRoot) {
  MerkleTree a({}), b({});
  EXPECT_EQ(a.root(), b.root());
  EXPECT_NE(a.root(), MerkleTree({bytes_of("")}).root());
}

TEST(Merkle, ProveOutOfRangeThrows) {
  MerkleTree tree({bytes_of("a")});
  EXPECT_THROW(tree.prove(1), std::out_of_range);
}

TEST(Merkle, LeafNodeDomainSeparation) {
  // A node hash of two leaf hashes must not collide with any leaf hash.
  const Bytes leaf = bytes_of("payload");
  const Digest lh = merkle_leaf_hash(BytesView(leaf.data(), leaf.size()));
  EXPECT_NE(lh, sha256(BytesView(leaf.data(), leaf.size())));
}

}  // namespace
}  // namespace debuglet::crypto
