#include "src/common/hash.h"

#include <bit>
#include <cstring>

#include "src/common/strings.h"

namespace scalecheck {

namespace {
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
// A second, independent offset basis for the hi stream (digits of pi).
constexpr uint64_t kFnvOffset2 = 0x243f6a8885a308d3ULL;

inline uint64_t FnvStep(uint64_t h, uint8_t byte) {
  return (h ^ byte) * kFnvPrime;
}
}  // namespace

uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < len; ++i) {
    h = FnvStep(h, p[i]);
  }
  return h;
}

uint64_t Fnv1a64(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

namespace {
// Slicing-by-8 CRC-32 (reflected 0xEDB88320), built once at first use.
// t[0][i] is the CRC of the single byte i; t[k][i] is that of byte i
// followed by k zero bytes, so eight table lookups advance the CRC by eight
// input bytes at once.
struct Crc32Tables {
  uint32_t t[8][256];

  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

const Crc32Tables& Crc32TableSet() {
  static const Crc32Tables tables;
  return tables;
}
}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const auto& t = Crc32TableSet().t;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; len -= 8, p += 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
  }
  for (; len > 0; --len, ++p) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

std::string DigestValue::ToHex() const {
  return StrFormat("%016llx%016llx", static_cast<unsigned long long>(hi),
                   static_cast<unsigned long long>(lo));
}

Digest::Digest() : lo_(kFnvOffset), hi_(kFnvOffset2) {}

void Digest::Absorb(uint8_t tag, const void* data, size_t len) {
  lo_ = FnvStep(lo_, tag);
  hi_ = FnvStep(hi_, static_cast<uint8_t>(tag ^ 0xff));
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    lo_ = FnvStep(lo_, p[i]);
    hi_ = FnvStep(hi_, static_cast<uint8_t>(p[i] ^ 0x5a));
  }
}

Digest& Digest::Add(int64_t v) {
  Absorb(3, &v, sizeof(v));
  return *this;
}

Digest& Digest::Add(uint64_t v) {
  Absorb(4, &v, sizeof(v));
  return *this;
}

Digest& Digest::Add(double v) {
  // Normalize -0.0 to 0.0 so semantically equal inputs hash equal.
  if (v == 0.0) {
    v = 0.0;
  }
  Absorb(5, &v, sizeof(v));
  return *this;
}

Digest& Digest::Add(bool v) {
  uint8_t b = v ? 1 : 0;
  Absorb(6, &b, sizeof(b));
  return *this;
}

Digest& Digest::Add(std::string_view s) {
  uint64_t n = s.size();
  Absorb(7, &n, sizeof(n));
  Absorb(8, s.data(), s.size());
  return *this;
}

DigestValue Digest::Finish() const {
  DigestValue v;
  v.lo = Mix64(lo_);
  v.hi = Mix64(hi_ ^ lo_);
  return v;
}

}  // namespace scalecheck
