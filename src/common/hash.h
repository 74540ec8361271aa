// Hashing utilities.
//
// Digest is the content-addressing primitive of the PIL memoization store: a
// 128-bit incremental hash over typed fields. It must be (a) deterministic
// across runs, (b) cheap, and (c) collision-resistant enough that distinct
// calculator inputs virtually never collide in a memoization database of a few
// million entries. Two independent FNV-1a streams with different offsets give
// an effective 128-bit state.

#ifndef SCALECHECK_SRC_COMMON_HASH_H_
#define SCALECHECK_SRC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scalecheck {

// One-shot FNV-1a over bytes.
uint64_t Fnv1a64(const void* data, size_t len);
uint64_t Fnv1a64(std::string_view s);

// CRC-32 (IEEE 802.3 polynomial, reflected). Used as the integrity check on
// the on-disk MemoStore format: unlike the content digests above it detects
// *every* single-bit flip and all burst errors up to 32 bits, which is the
// property the corruption-fuzz tests rely on. `seed` allows chaining.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

// 64-bit avalanche mixer (MurmurHash3 finalizer).
uint64_t Mix64(uint64_t x);

// Order-dependent combination of two hash values.
uint64_t HashCombine(uint64_t a, uint64_t b);

// The 128-bit value produced by Digest.
struct DigestValue {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const DigestValue&) const = default;
  auto operator<=>(const DigestValue&) const = default;
  std::string ToHex() const;
};

struct DigestValueHash {
  size_t operator()(const DigestValue& d) const {
    return static_cast<size_t>(Mix64(d.lo ^ Mix64(d.hi)));
  }
};

// Incremental, typed hasher. Appending the same sequence of typed values
// always yields the same DigestValue. Types are tagged so that e.g.
// Add(int64 1) and Add(uint64 1) differ.
class Digest {
 public:
  Digest();

  Digest& Add(int64_t v);
  Digest& Add(uint64_t v);
  Digest& Add(int32_t v) { return Add(static_cast<int64_t>(v)); }
  Digest& Add(uint32_t v) { return Add(static_cast<uint64_t>(v)); }
  Digest& Add(double v);
  Digest& Add(bool v);
  Digest& Add(std::string_view s);

  template <typename T>
  Digest& AddRange(const std::vector<T>& v) {
    Add(static_cast<uint64_t>(v.size()));
    for (const T& x : v) {
      Add(x);
    }
    return *this;
  }

  DigestValue Finish() const;

 private:
  void Absorb(uint8_t tag, const void* data, size_t len);

  uint64_t lo_;
  uint64_t hi_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_COMMON_HASH_H_
