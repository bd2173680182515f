// Private-results tests (paper §IV-C): stream cipher, sealed boxes, and
// the end-to-end sealed measurement flow through the marketplace.
#include <gtest/gtest.h>

#include "core/debuglet.hpp"
#include "crypto/box.hpp"
#include "crypto/stream.hpp"

namespace debuglet {
namespace {

using net::Protocol;

// --- Stream cipher ----------------------------------------------------------

TEST(StreamCipher, XorTwiceIsIdentity) {
  const Bytes key = bytes_of("a shared secret");
  const Bytes plain = bytes_of("measurement results, 1.21 gigawatts");
  const Bytes ct =
      crypto::stream_xor(BytesView(key.data(), key.size()), 7,
                         BytesView(plain.data(), plain.size()));
  EXPECT_NE(ct, plain);
  const Bytes back = crypto::stream_xor(BytesView(key.data(), key.size()), 7,
                                        BytesView(ct.data(), ct.size()));
  EXPECT_EQ(back, plain);
}

TEST(StreamCipher, DifferentNoncesDifferentStreams) {
  const Bytes key = bytes_of("key");
  const Bytes plain(64, 0x00);  // zeros expose the raw keystream
  const Bytes s1 = crypto::stream_xor(BytesView(key.data(), key.size()), 1,
                                      BytesView(plain.data(), plain.size()));
  const Bytes s2 = crypto::stream_xor(BytesView(key.data(), key.size()), 2,
                                      BytesView(plain.data(), plain.size()));
  EXPECT_NE(s1, s2);
}

TEST(StreamCipher, LongMessagesSpanBlocks) {
  const Bytes key = bytes_of("key");
  Bytes plain(1000);
  for (std::size_t i = 0; i < plain.size(); ++i)
    plain[i] = static_cast<std::uint8_t>(i);
  const Bytes ct = crypto::stream_xor(BytesView(key.data(), key.size()), 3,
                                      BytesView(plain.data(), plain.size()));
  EXPECT_EQ(crypto::stream_xor(BytesView(key.data(), key.size()), 3,
                               BytesView(ct.data(), ct.size())),
            plain);
  // Keystream blocks must not repeat (first 32 bytes vs second 32).
  EXPECT_NE(Bytes(ct.begin(), ct.begin() + 32),
            Bytes(ct.begin() + 32, ct.begin() + 64));
}

TEST(StreamSeal, RoundTripAndTamperDetection) {
  const Bytes key = bytes_of("seal key");
  const Bytes plain = bytes_of("private payload");
  const Bytes sealed = crypto::seal(BytesView(key.data(), key.size()), 9,
                                    BytesView(plain.data(), plain.size()));
  auto opened = crypto::open(BytesView(key.data(), key.size()),
                             BytesView(sealed.data(), sealed.size()));
  ASSERT_TRUE(opened.ok()) << opened.error_message();
  EXPECT_EQ(*opened, plain);

  for (std::size_t i : {0u, 9u, static_cast<unsigned>(sealed.size() - 1)}) {
    Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(crypto::open(BytesView(key.data(), key.size()),
                              BytesView(tampered.data(), tampered.size()))
                     .ok())
        << "byte " << i;
  }
  const Bytes wrong = bytes_of("other key");
  EXPECT_FALSE(crypto::open(BytesView(wrong.data(), wrong.size()),
                            BytesView(sealed.data(), sealed.size()))
                   .ok());
  EXPECT_FALSE(crypto::open(BytesView(key.data(), key.size()),
                            BytesView(sealed.data(), 10))
                   .ok());
}

TEST(StreamSeal, EmptyPlaintext) {
  const Bytes key = bytes_of("k");
  const Bytes sealed = crypto::seal(BytesView(key.data(), key.size()), 1, {});
  auto opened = crypto::open(BytesView(key.data(), key.size()),
                             BytesView(sealed.data(), sealed.size()));
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

// --- Sealed boxes -----------------------------------------------------------

TEST(Box, SealForRecipientOnly) {
  const crypto::KeyPair alice = crypto::KeyPair::from_seed(1001);
  const crypto::KeyPair eve = crypto::KeyPair::from_seed(1002);
  const Bytes plain = bytes_of("for alice's eyes only");
  const Bytes sealed = crypto::seal_for(
      alice.public_key(), BytesView(plain.data(), plain.size()), 42);
  auto opened = crypto::open_box(alice,
                                 BytesView(sealed.data(), sealed.size()));
  ASSERT_TRUE(opened.ok()) << opened.error_message();
  EXPECT_EQ(*opened, plain);
  EXPECT_FALSE(
      crypto::open_box(eve, BytesView(sealed.data(), sealed.size())).ok());
}

TEST(Box, DistinctEntropyDistinctCiphertext) {
  const crypto::KeyPair alice = crypto::KeyPair::from_seed(1003);
  const Bytes plain = bytes_of("same message");
  const Bytes s1 = crypto::seal_for(alice.public_key(),
                                    BytesView(plain.data(), plain.size()), 1);
  const Bytes s2 = crypto::seal_for(alice.public_key(),
                                    BytesView(plain.data(), plain.size()), 2);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(*crypto::open_box(alice, BytesView(s1.data(), s1.size())), plain);
  EXPECT_EQ(*crypto::open_box(alice, BytesView(s2.data(), s2.size())), plain);
}

TEST(Box, DhAgreement) {
  const crypto::KeyPair a = crypto::KeyPair::from_seed(1004);
  const crypto::KeyPair b = crypto::KeyPair::from_seed(1005);
  EXPECT_EQ(a.shared_secret(b.public_key()), b.shared_secret(a.public_key()));
  const crypto::KeyPair c = crypto::KeyPair::from_seed(1006);
  EXPECT_NE(a.shared_secret(b.public_key()), a.shared_secret(c.public_key()));
}

TEST(Box, RejectsMalformed) {
  const crypto::KeyPair alice = crypto::KeyPair::from_seed(1007);
  EXPECT_FALSE(crypto::open_box(alice, {}).ok());
  const Bytes junk(40, 0xAA);
  EXPECT_FALSE(
      crypto::open_box(alice, BytesView(junk.data(), junk.size())).ok());
}

// --- End-to-end private measurement ------------------------------------------

TEST(PrivateMeasurement, SealedOnChainOpenableByInitiator) {
  core::DebugletSystem system(simnet::build_chain_scenario(3, 1313, 5.0));
  core::Initiator initiator(system, 1314, 500'000'000'000ULL);

  auto handle = initiator.purchase_rtt_measurement(
      {1, 2}, {3, 1}, Protocol::kUdp, 8, 100, /*earliest_start=*/0,
      /*seal_results=*/true);
  ASSERT_TRUE(handle.ok()) << handle.error_message();

  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();

  // The published output is ciphertext: it does not decode as samples.
  const Bytes& published = outcome->client.record.output;
  ASSERT_FALSE(published.empty());
  auto as_samples =
      apps::decode_samples(BytesView(published.data(), published.size()));
  // (The sealed blob has nonce+tag overhead, so the length check fails.)
  EXPECT_FALSE(as_samples.ok());

  // The certification still verifies over the sealed bytes.
  const auto as1_pk = system.as_public_key(1);
  EXPECT_TRUE(executor::verify_certified(outcome->client, &*as1_pk));

  // A third party (another key) cannot open it.
  core::Initiator snoop(system, 6666, 1'000'000ULL);
  EXPECT_FALSE(snoop.open_result(outcome->client).ok());

  // The initiator can.
  auto plain = initiator.open_result(outcome->client);
  ASSERT_TRUE(plain.ok()) << plain.error_message();
  auto samples = apps::decode_samples(BytesView(plain->data(), plain->size()));
  ASSERT_TRUE(samples.ok()) << samples.error_message();
  EXPECT_EQ(samples->size(), 8u);
  for (const auto& sample : *samples)
    EXPECT_NEAR(static_cast<double>(sample.delay_ns) / 1e6, 20.6, 1.5);
}

TEST(PrivateMeasurement, UnsealedFlowUnaffected) {
  core::DebugletSystem system(simnet::build_chain_scenario(3, 1414, 5.0));
  core::Initiator initiator(system, 1415, 500'000'000'000ULL);
  auto handle = initiator.purchase_rtt_measurement({1, 2}, {3, 1},
                                                   Protocol::kUdp, 5, 100);
  ASSERT_TRUE(handle.ok());
  auto outcome = initiator.await_result(*handle);
  ASSERT_TRUE(outcome.ok()) << outcome.error_message();
  auto samples = apps::decode_samples(BytesView(
      outcome->client.record.output.data(),
      outcome->client.record.output.size()));
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples->size(), 5u);
  // Opening a plaintext result with the box fails cleanly.
  EXPECT_FALSE(initiator.open_result(outcome->client).ok());
}

}  // namespace
}  // namespace debuglet
