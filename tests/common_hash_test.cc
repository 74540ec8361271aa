#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"

namespace scalecheck {
namespace {

TEST(Fnv1a, KnownProperties) {
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);  // offset basis
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64(std::string_view("hello")));
}

TEST(Mix64, BijectiveSmoke) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) {
    outputs.insert(Mix64(i));
  }
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(HashCombineFn, OrderMatters) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(DigestTest, DeterministicAcrossInstances) {
  Digest a;
  a.Add(int64_t{42}).Add(3.14).Add(std::string_view("ring")).Add(true);
  Digest b;
  b.Add(int64_t{42}).Add(3.14).Add(std::string_view("ring")).Add(true);
  EXPECT_EQ(a.Finish(), b.Finish());
}

TEST(DigestTest, TypeTagsDistinguishValues) {
  Digest signed_d;
  signed_d.Add(int64_t{1});
  Digest unsigned_d;
  unsigned_d.Add(uint64_t{1});
  EXPECT_NE(signed_d.Finish(), unsigned_d.Finish());
}

TEST(DigestTest, OrderSensitive) {
  Digest ab;
  ab.Add(int64_t{1}).Add(int64_t{2});
  Digest ba;
  ba.Add(int64_t{2}).Add(int64_t{1});
  EXPECT_NE(ab.Finish(), ba.Finish());
}

TEST(DigestTest, StringBoundariesMatter) {
  // ("ab", "c") must differ from ("a", "bc").
  Digest x;
  x.Add(std::string_view("ab")).Add(std::string_view("c"));
  Digest y;
  y.Add(std::string_view("a")).Add(std::string_view("bc"));
  EXPECT_NE(x.Finish(), y.Finish());
}

TEST(DigestTest, NegativeZeroNormalized) {
  Digest pos;
  pos.Add(0.0);
  Digest neg;
  neg.Add(-0.0);
  EXPECT_EQ(pos.Finish(), neg.Finish());
}

TEST(DigestTest, RangeIncludesLength) {
  Digest one;
  one.AddRange(std::vector<uint64_t>{7});
  Digest two;
  two.AddRange(std::vector<uint64_t>{7, 7});
  EXPECT_NE(one.Finish(), two.Finish());
}

TEST(DigestTest, CollisionSmoke) {
  // 100k distinct inputs, no collisions expected from a 128-bit digest.
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (int64_t i = 0; i < 100000; ++i) {
    Digest d;
    d.Add(i).Add(i * 31);
    DigestValue v = d.Finish();
    EXPECT_TRUE(seen.emplace(v.lo, v.hi).second) << "collision at " << i;
  }
}

TEST(DigestValueTest, HexRendering) {
  DigestValue v{0x1234, 0xabcd};
  EXPECT_EQ(v.ToHex(), "000000000000abcd0000000000001234");
}

TEST(DigestValueTest, HashUsableInMaps) {
  DigestValueHash h;
  DigestValue a{1, 2};
  DigestValue b{1, 3};
  EXPECT_NE(h(a), h(b));
}

TEST(Crc32Test, MatchesIeeeCheckValue) {
  // The standard CRC-32/IEEE check vector: crc32("123456789") = 0xCBF43926.
  // Pins the implementation to the real polynomial (a home-grown variant
  // would still "detect corruption" in tests but break cross-tool checking
  // of memo DB files).
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
  const char* s = "123456789";
  uint32_t partial = Crc32(s, 4);
  EXPECT_EQ(Crc32(s + 4, 5, partial), Crc32(s, 9));
  EXPECT_NE(Crc32(s, 9), Crc32(s, 8));
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// The bytewise table loop Crc32 used before slicing-by-8, kept as the
// reference the sliced one must match bit for bit.
uint32_t BytewiseCrc32(const uint8_t* p, size_t len, uint32_t seed) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedMatchesBytewiseAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 4097;
  std::vector<uint8_t> buf(kMaxLen + 8);
  Rng rng(0xc3c32);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = buf.data() + offset;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32(p, len), BytewiseCrc32(p, len, 0))
          << "len " << len << " offset " << offset;
    }
  }
}

TEST(Crc32Test, SlicedChainsLikeBytewise) {
  std::vector<uint8_t> buf(1500);
  Rng rng(0x5eed);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (int trial = 0; trial < 200; ++trial) {
    // A random split of a random span, chained through the first part's CRC,
    // and an arbitrary seed as a chained start.
    const size_t begin = rng.PickIndex(64);
    const size_t len = rng.PickIndex(buf.size() - begin);
    const size_t split = len == 0 ? 0 : rng.PickIndex(len + 1);
    const uint8_t* p = buf.data() + begin;
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const uint32_t head = Crc32(p, split, seed);
    EXPECT_EQ(head, BytewiseCrc32(p, split, seed));
    EXPECT_EQ(Crc32(p + split, len - split, head), BytewiseCrc32(p, len, seed))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace scalecheck
