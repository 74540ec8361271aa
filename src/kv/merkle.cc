#include "src/kv/merkle.h"

#include <algorithm>

#include "src/common/check.h"

namespace scalecheck {
namespace {

// Independent salts for the two XOR streams; a single 64-bit fold would let
// two colliding keys cancel silently.
constexpr uint64_t kLoSalt = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kHiSalt = 0xc2b2ae3d27d4eb4full;

uint64_t PairLo(uint64_t key, int64_t timestamp) {
  return Mix64(HashCombine(key, static_cast<uint64_t>(timestamp)) ^ kLoSalt);
}

uint64_t PairHi(uint64_t key, int64_t timestamp) {
  return Mix64(HashCombine(key, static_cast<uint64_t>(timestamp)) ^ kHiSalt);
}

bool InMask(const std::vector<KeyRange>& mask, Token t) {
  if (mask.empty()) {
    return true;
  }
  for (const KeyRange& r : mask) {
    if (r.Contains(t)) {
      return true;
    }
  }
  return false;
}

// True when range `r` covers ALL of the contiguous token span [lo, hi].
// Conservative: a false negative only costs a key re-scan, a false positive
// would corrupt hashes, so the boundary cases resolve toward false.
bool CoversSpan(const KeyRange& r, Token lo, Token hi) {
  if (r.start == r.end) {
    return true;  // full ring
  }
  if (!r.Contains(lo) || !r.Contains(hi)) {
    return false;
  }
  // Both span endpoints are inside (start, end]. The only way part of
  // [lo, hi] still escapes is if the complement arc (end, start] lies
  // strictly inside the span.
  const bool start_in_span = r.start >= lo && r.start <= hi;
  const bool end_in_span = r.end >= lo && r.end <= hi;
  return !(start_in_span && end_in_span);
}

}  // namespace

MerkleTree::MerkleTree(int depth) : depth_(depth) {
  CHECK(depth >= 1 && depth <= 20) << "merkle depth out of range:" << depth;
  acc_.resize(size_t{1} << depth_);
}

void MerkleTree::Apply(uint64_t key, int64_t timestamp) {
  const Token token = Mix64(key);
  const uint64_t leaf = LeafOfToken(token);
  if (buckets_.empty()) {
    buckets_.resize(acc_.size());
  }
  LeafAcc& acc = acc_[leaf];
  Bucket& bucket = buckets_[leaf];
  auto it = std::lower_bound(
      bucket.begin(), bucket.end(), token,
      [](const KeyVersion& kv, Token t) { return kv.token < t; });
  if (it == bucket.end() || it->token != token) {
    bucket.insert(it, KeyVersion{token, key, timestamp});
    ++num_keys_;
    acc.lo ^= PairLo(key, timestamp);
    acc.hi ^= PairHi(key, timestamp);
    ++acc.count;
    return;
  }
  if (it->timestamp >= timestamp) {
    return;  // LWW: not newer than what the tree already commits to
  }
  // XOR out the old pair, XOR in the new one; count is unchanged.
  acc.lo ^= PairLo(key, it->timestamp) ^ PairLo(key, timestamp);
  acc.hi ^= PairHi(key, it->timestamp) ^ PairHi(key, timestamp);
  it->timestamp = timestamp;
}

void MerkleTree::Clear() {
  buckets_.clear();
  num_keys_ = 0;
  acc_.assign(acc_.size(), LeafAcc{});
}

int64_t MerkleTree::ApproxBytes() const {
  // Per-key index overhead + the accumulator array.
  return static_cast<int64_t>(num_keys_) * 72 +
         static_cast<int64_t>(acc_.size()) * 16 + 64;
}

const MerkleTree::Bucket& MerkleTree::BucketOf(uint64_t leaf) const {
  static const Bucket kEmpty;
  return buckets_.empty() ? kEmpty : buckets_[leaf];
}

DigestValue MerkleTree::LeafHash(uint64_t leaf,
                                 const std::vector<KeyRange>& mask) const {
  const int shift = 64 - depth_;
  const Token lo = static_cast<Token>(leaf) << shift;
  const Token hi = lo + ((Token{1} << shift) - 1);

  uint64_t acc_lo = 0;
  uint64_t acc_hi = 0;
  uint32_t count = 0;

  bool fast = mask.empty();
  if (!fast) {
    for (const KeyRange& r : mask) {
      if (CoversSpan(r, lo, hi)) {
        fast = true;
        break;
      }
    }
  }
  if (fast) {
    const LeafAcc& acc = acc_[leaf];
    acc_lo = acc.lo;
    acc_hi = acc.hi;
    count = acc.count;
  } else {
    // The leaf straddles a mask boundary: fold only the masked keys.
    for (const KeyVersion& kv : BucketOf(leaf)) {
      if (!InMask(mask, kv.token)) {
        continue;
      }
      acc_lo ^= PairLo(kv.key, kv.timestamp);
      acc_hi ^= PairHi(kv.key, kv.timestamp);
      ++count;
    }
  }
  if (count == 0) {
    return DigestValue{};
  }
  Digest d;
  d.Add(static_cast<uint64_t>(count));
  d.Add(acc_lo);
  d.Add(acc_hi);
  return d.Finish();
}

DigestValue MerkleTree::HashOfNode(int level, uint64_t index,
                                   const std::vector<KeyRange>& mask) const {
  CHECK(level >= 0 && level <= depth_) << "merkle level out of range:" << level;
  CHECK_LT(index, uint64_t{1} << level);
  if (level == depth_) {
    return LeafHash(index, mask);
  }
  const int span_bits = depth_ - level;
  const uint64_t first = index << span_bits;
  const uint64_t last = first + (uint64_t{1} << span_bits);
  Digest d;
  d.Add(static_cast<uint64_t>(level));
  d.Add(index);
  bool any = false;
  for (uint64_t leaf = first; leaf < last; ++leaf) {
    DigestValue h = LeafHash(leaf, mask);
    any = any || h != DigestValue{};
    d.Add(h.lo);
    d.Add(h.hi);
  }
  if (!any) {
    return DigestValue{};  // empty subtrees compare equal without hashing
  }
  return d.Finish();
}

std::vector<std::pair<uint64_t, int64_t>> MerkleTree::KeysInLeaf(
    uint64_t leaf, const std::vector<KeyRange>& mask) const {
  CHECK_LT(leaf, num_leaves());
  std::vector<std::pair<uint64_t, int64_t>> out;
  for (const KeyVersion& kv : BucketOf(leaf)) {
    if (InMask(mask, kv.token)) {
      out.emplace_back(kv.key, kv.timestamp);
    }
  }
  return out;
}

}  // namespace scalecheck
