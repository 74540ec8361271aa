// Merkle trees over the token space, for anti-entropy repair.
//
// Each replica maintains one tree summarizing every (key, timestamp) pair it
// stores: the token space [0, 2^64) is split into 2^depth equal leaf spans,
// and a leaf's hash commits to the set of key/timestamp pairs whose tokens
// fall in its span. Repair sessions (src/kv/anti_entropy.h) exchange
// root-to-subtree hashes and stream only the leaf ranges that differ.
//
// Two properties the tests pin:
//  - Determinism: the hash of any subtree depends only on the (key,
//    timestamp) SET it covers, never on insertion order. Leaf accumulators
//    are XOR-folded per-key digests, so Apply order cannot matter.
//  - Incremental maintenance: Apply() is called from the replica write path
//    (replica Put, WAL replay, hint/repair application) and is LWW-guarded —
//    applying an older timestamp for a known key is a no-op, mirroring the
//    storage engine's last-write-wins rule. An incrementally maintained tree
//    is always identical to one rebuilt from the final key set.
//
// Hashes can be evaluated restricted to a token-range mask (the ranges two
// replicas share), so co-replicas compare only the data both are supposed to
// hold. Leaves fully covered by a mask range use the O(1) accumulator; only
// leaves straddling a range boundary re-scan their keys.
//
// Keys live in one token-sorted bucket per leaf, so Apply touches a single
// short contiguous array. The buckets are allocated on the first Apply: a
// tree that never sees a key costs only its accumulators.

#ifndef SCALECHECK_SRC_KV_MERKLE_H_
#define SCALECHECK_SRC_KV_MERKLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/ring/token_ring.h"

namespace scalecheck {

class MerkleTree {
 public:
  static constexpr int kDefaultDepth = 10;  // 1024 leaves

  explicit MerkleTree(int depth = kDefaultDepth);

  // Records that `key` is now visible at `timestamp`. LWW-idempotent: a
  // timestamp not newer than the recorded one leaves the tree unchanged.
  void Apply(uint64_t key, int64_t timestamp);
  void Clear();

  int depth() const { return depth_; }
  uint64_t num_leaves() const { return uint64_t{1} << depth_; }
  size_t num_keys() const { return num_keys_; }
  int64_t ApproxBytes() const;

  uint64_t LeafOfToken(Token t) const { return t >> (64 - depth_); }

  // Hash of tree node (level, index) — level 0 is the root, level depth()
  // the leaves — restricted to tokens inside `mask`. An empty mask means the
  // whole token space. A node covering no masked keys hashes to {0, 0}.
  DigestValue HashOfNode(int level, uint64_t index,
                         const std::vector<KeyRange>& mask) const;
  DigestValue Root() const { return HashOfNode(0, 0, {}); }

  // The (key, timestamp) pairs in `leaf` ∩ mask, in token order.
  std::vector<std::pair<uint64_t, int64_t>> KeysInLeaf(
      uint64_t leaf, const std::vector<KeyRange>& mask) const;

 private:
  // XOR-folded per-key digests: removal is re-XOR, so updates are a bucket
  // search plus O(1) hash work, and the fold is order-independent.
  struct LeafAcc {
    uint64_t lo = 0;
    uint64_t hi = 0;
    uint32_t count = 0;
  };
  struct KeyVersion {
    Token token = 0;
    uint64_t key = 0;
    int64_t timestamp = 0;
  };
  using Bucket = std::vector<KeyVersion>;  // sorted by token

  DigestValue LeafHash(uint64_t leaf, const std::vector<KeyRange>& mask) const;
  // The leaf's keys; empty before the first Apply.
  const Bucket& BucketOf(uint64_t leaf) const;

  int depth_;
  std::vector<LeafAcc> acc_;      // one per leaf
  std::vector<Bucket> buckets_;   // one per leaf once any key is applied
  size_t num_keys_ = 0;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_KV_MERKLE_H_
