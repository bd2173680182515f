#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace debuglet {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xAB, 0xFF, 0x7E};
  const std::string hex = to_hex(BytesView(data.data(), data.size()));
  EXPECT_EQ(hex, "0001abff7e");
  auto back = from_hex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(Hex, AcceptsUppercase) {
  auto v = from_hex("DEADBEEF");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(to_hex(BytesView(v->data(), v->size())), "deadbeef");
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").ok()); }

TEST(Hex, RejectsNonHex) { EXPECT_FALSE(from_hex("zz").ok()); }

TEST(Hex, EmptyIsEmpty) {
  auto v = from_hex("");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->empty());
}

// The published 64-bit FNV-1a test vectors, and that a seed continues a
// hash: hashing "foo" then "bar" equals hashing "foobar".
TEST(Fnv1a, MatchesPublishedVectors) {
  const Bytes empty;
  const Bytes a = bytes_of("a");
  const Bytes foobar = bytes_of("foobar");
  EXPECT_EQ(fnv1a(empty), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(empty), kFnv1aBasis);
  EXPECT_EQ(fnv1a(a), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(foobar), 0x85944171f73967e8ULL);
  const BytesView view(foobar.data(), foobar.size());
  EXPECT_EQ(fnv1a(view.subspan(3), fnv1a(view.first(3))),
            0x85944171f73967e8ULL);
}

TEST(BytesWriterReader, FixedWidthRoundTrip) {
  BytesWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.5);

  BytesReader r(BytesView(w.bytes().data(), w.bytes().size()));
  EXPECT_EQ(*r.u8(), 0xAB);
  EXPECT_EQ(*r.u16(), 0xBEEF);
  EXPECT_EQ(*r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.i64(), -42);
  EXPECT_EQ(*r.f64(), 3.5);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesWriterReader, LittleEndianLayout) {
  BytesWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(BytesWriterReader, TruncationDetected) {
  BytesWriter w;
  w.u16(7);
  BytesReader r(BytesView(w.bytes().data(), w.bytes().size()));
  EXPECT_FALSE(r.u32().ok());
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  BytesWriter w;
  w.varint(GetParam());
  BytesReader r(BytesView(w.bytes().data(), w.bytes().size()));
  auto v = r.varint();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, GetParam());
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32, (1ULL << 56) + 12345,
                      ~0ULL, ~0ULL - 1));

TEST(Varint, SizeIsMinimal) {
  BytesWriter w;
  w.varint(127);
  EXPECT_EQ(w.size(), 1u);
  BytesWriter w2;
  w2.varint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Blob, RoundTripsAndRejectsOverlongLength) {
  BytesWriter w;
  const Bytes payload = bytes_of("hello world");
  w.blob(BytesView(payload.data(), payload.size()));
  BytesReader r(BytesView(w.bytes().data(), w.bytes().size()));
  auto back = r.blob();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);

  // A blob whose declared length exceeds the remaining input must fail.
  BytesWriter w2;
  w2.varint(1000);
  w2.u8(1);
  BytesReader r2(BytesView(w2.bytes().data(), w2.bytes().size()));
  EXPECT_FALSE(r2.blob().ok());
}

TEST(Str, RoundTripsUtf8AndEmpty) {
  BytesWriter w;
  w.str("grüß dich");
  w.str("");
  BytesReader r(BytesView(w.bytes().data(), w.bytes().size()));
  EXPECT_EQ(*r.str(), "grüß dich");
  EXPECT_EQ(*r.str(), "");
}

TEST(Result, ValueAndErrorAccess) {
  Result<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  EXPECT_EQ(good.error_message(), "");

  Result<int> bad = fail("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_THROW(bad.value(), std::logic_error);
  EXPECT_THROW(good.error(), std::logic_error);
}

TEST(Result, MisuseMessagesNameTheHeldError) {
  auto message_of = [](auto&& access) -> std::string {
    try {
      access();
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "no throw";
  };
  Result<std::string> bad = fail("nope");
  const Result<std::string>& const_bad = bad;
  const std::string expected = "Result::value() on error: nope";
  EXPECT_EQ(message_of([&] { (void)bad.value(); }), expected);
  EXPECT_EQ(message_of([&] { (void)const_bad.value(); }), expected);
  EXPECT_EQ(message_of([&] { (void)*bad; }), expected);
  EXPECT_EQ(message_of([&] { (void)bad->size(); }), expected);
  EXPECT_EQ(message_of([&] { (void)const_bad->size(); }), expected);
  EXPECT_EQ(message_of([&] { (void)std::move(bad).value(); }), expected);

  Result<std::string> good(std::string("yes"));
  EXPECT_EQ(message_of([&] { (void)good.error(); }),
            "Result::error() on success");
  EXPECT_EQ(message_of([&] { (void)good.value(); }), "no throw");
}

}  // namespace
}  // namespace debuglet
