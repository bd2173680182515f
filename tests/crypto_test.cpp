#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/merkle.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"
#include "util/rng.hpp"

namespace debuglet::crypto {
namespace {

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
  EXPECT_EQ(pow_mod(U256(3), U256(20), U256(1000)), U256(401));
  // Fermat: a^(p-1) = 1 mod p for prime p = 1'000'000'007.
  const U256 p(1'000'000'007ULL);
  EXPECT_EQ(pow_mod(U256(12345), U256(1'000'000'006ULL), p), U256(1));
}

TEST(U256, PowModLargeFermat) {
  // The group prime p is prime, so g^(p-1) == 1 (mod p).
  const U256& p = group_prime();
  bool borrow = false;
  const U256 pm1 = sub(p, U256(1), &borrow);
  EXPECT_EQ(pow_mod(group_generator(), pm1, p), U256(1));
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
