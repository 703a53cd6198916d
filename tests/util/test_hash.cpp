// Tests for the 128-bit streaming hash: determinism, input sensitivity,
// prefix-freedom of the framed string encoding, and the hex round trip
// that checkpoint files rely on.

#include "util/hash.hpp"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wfr::util {
namespace {

TEST(HashStreamTest, DeterministicForEqualInput) {
  auto digest = [] {
    HashStream h;
    h.str("hello");
    h.u64(42);
    h.f64(3.5);
    return h.digest();
  };
  EXPECT_EQ(digest(), digest());
}

TEST(HashStreamTest, DigestIsNonDestructive) {
  HashStream h;
  h.str("partial");
  const Hash128 first = h.digest();
  EXPECT_EQ(first, h.digest());  // repeated finalization agrees
  h.u64(1);
  EXPECT_NE(first, h.digest());  // more input changes the digest
}

TEST(HashStreamTest, SensitiveToEveryInput) {
  // The identity is the byte stream, untagged: u64(0), f64(+0.0), and
  // str("") intentionally coincide (all eight zero bytes).  Within a
  // type, every distinct value must digest distinctly.
  auto distinct_within = [](auto feed, auto values) {
    std::set<std::string> seen;
    for (const auto& v : values) {
      HashStream h;
      feed(h, v);
      EXPECT_TRUE(seen.insert(to_hex(h.digest())).second)
          << "collision within type at " << to_hex(h.digest());
    }
  };
  distinct_within([](HashStream& h, std::uint64_t v) { h.u64(v); },
                  std::vector<std::uint64_t>{0, 1, 2, 1ull << 40});
  distinct_within([](HashStream& h, double v) { h.f64(v); },
                  std::vector<double>{0.0, 1.0, -1.0, 1e300});
  distinct_within([](HashStream& h, const char* s) { h.str(s); },
                  std::vector<const char*>{"", "a", "b", "ab"});
  // The empty stream digests unlike any fed stream.
  HashStream empty, zero;
  zero.u64(0);
  EXPECT_NE(empty.digest(), zero.digest());
}

TEST(HashStreamTest, FramedStringsArePrefixFree) {
  HashStream ab_c;
  ab_c.str("ab");
  ab_c.str("c");
  HashStream a_bc;
  a_bc.str("a");
  a_bc.str("bc");
  EXPECT_NE(ab_c.digest(), a_bc.digest());
}

TEST(HashStreamTest, FloatIdentityIsBitPattern) {
  HashStream pos, neg;
  pos.f64(0.0);
  neg.f64(-0.0);
  // +0.0 and -0.0 compare equal but have distinct bit patterns — the
  // identity is the serialized representation, not IEEE comparison.
  EXPECT_NE(pos.digest(), neg.digest());
}

TEST(HashBytesTest, MatchesStreamedBytes) {
  const std::string data = "canonical bytes";
  HashStream h;
  h.bytes(data.data(), data.size());
  EXPECT_EQ(hash_bytes(data), h.digest());
  EXPECT_NE(hash_bytes("canonical bytes"), hash_bytes("canonical bytez"));
}

TEST(HashHexTest, RoundTrip) {
  const Hash128 hash = hash_bytes("round trip me");
  const std::string hex = to_hex(hash);
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(hash_from_hex(hex), hash);
}

TEST(HashHexTest, RejectsMalformedHex) {
  EXPECT_THROW(hash_from_hex(""), ParseError);
  EXPECT_THROW(hash_from_hex("abc"), ParseError);
  EXPECT_THROW(hash_from_hex(std::string(32, 'g')), ParseError);
  EXPECT_THROW(hash_from_hex(std::string(33, 'a')), ParseError);
}

}  // namespace
}  // namespace wfr::util
