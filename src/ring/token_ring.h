// The consistent-hashing token ring (Cassandra's TokenMetadata).
//
// Each node owns P tokens (P=1 without virtual nodes, P=256 in vnode-era
// Cassandra). The ring is the scale-dependent data structure of this paper:
// every one of the studied pending-range bugs is a loop nest over it. Keys in
// (predecessor_token, token] belong to the owner of `token`; the replica set
// of a key is the first RF distinct owners met walking clockwise.

#ifndef SCALECHECK_SRC_RING_TOKEN_RING_H_
#define SCALECHECK_SRC_RING_TOKEN_RING_H_

#include <cstdint>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/hash.h"
#include "src/common/types.h"
#include "src/gossip/endpoint_state.h"  // Token

namespace scalecheck {

struct RingEntry {
  Token token = 0;
  NodeId owner = kInvalidNode;

  bool operator==(const RingEntry&) const = default;
};

// A key range (start, end], wrapping at 2^64.
struct KeyRange {
  Token start = 0;
  Token end = 0;

  bool Contains(Token key) const;
  bool operator==(const KeyRange&) const = default;
  auto operator<=>(const KeyRange&) const = default;
};

// Non-owning view of one node's sorted tokens inside the ring's pooled
// storage. Valid until the next AddNode/RemoveNode on that ring.
struct TokenSpan {
  const Token* ptr = nullptr;
  size_t len = 0;

  const Token* begin() const { return ptr; }
  const Token* end() const { return ptr + len; }
  size_t size() const { return len; }
  bool empty() const { return len == 0; }
  Token operator[](size_t i) const { return ptr[i]; }
};

class TokenRing {
 public:
  TokenRing() = default;

  // Adds a node with its tokens. Tokens must be distinct ring-wide.
  void AddNode(NodeId node, const std::vector<Token>& tokens);
  void RemoveNode(NodeId node);
  bool HasNode(NodeId node) const { return tokens_by_node_.count(node) > 0; }

  size_t num_entries() const { return entries_.size(); }
  size_t num_nodes() const { return tokens_by_node_.size(); }
  const std::vector<RingEntry>& entries() const { return entries_; }
  TokenSpan TokensOf(NodeId node) const;
  std::vector<NodeId> Nodes() const;

  // Index of the entry owning `key` (first token >= key, wrapping).
  // Requires a non-empty ring.
  size_t OwnerIndex(Token key) const;
  NodeId OwnerOf(Token key) const { return entries_[OwnerIndex(key)].owner; }

  // First `rf` distinct owners walking clockwise from the owner of `key`.
  // Returns fewer if the ring has fewer distinct nodes.
  std::vector<NodeId> NaturalEndpointsForKey(Token key, int rf) const;
  // The same, into `*out` (cleared first), so a caller on a hot path reuses
  // one buffer's capacity across lookups.
  void NaturalEndpointsForKey(Token key, int rf, std::vector<NodeId>* out) const;

  // The key range ending at entries()[i].token.
  KeyRange RangeOfEntry(size_t i) const;

  // Content digest (order-independent across insertion histories: entries
  // are kept sorted).
  DigestValue ComputeDigest() const;

  // Three flat vector copies, regardless of node count. The old layout
  // (std::map<NodeId, std::vector<Token>>) cost 2N allocations per clone,
  // and the pending-range calculators clone the ring on every invocation —
  // that one site was 70% of ALL allocations in an N=384 run.
  TokenRing Clone() const { return *this; }

  // Approximate heap footprint, for the memory model. Deliberately kept at
  // the pre-flattening formula: the memory model charges these bytes, and
  // the modelled footprint (what C3831 is about) must not silently shrink
  // because the harness got leaner.
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(entries_.size()) * 48 +
           static_cast<int64_t>(tokens_by_node_.size()) * 64;
  }

 private:
  // Slice of token_storage_: each node's sorted tokens live contiguously.
  struct TokenSlice {
    uint32_t offset = 0;
    uint32_t len = 0;
  };

  std::vector<RingEntry> entries_;  // sorted by token
  FlatMap<NodeId, TokenSlice> tokens_by_node_;
  // Pooled token storage; RemoveNode leaves holes (bounded by membership
  // churn on this instance — clones copy them, which is still far cheaper
  // than per-node vectors).
  std::vector<Token> token_storage_;
};

// Deterministically generates `count` pseudo-random distinct tokens for a
// node; the same (node, count, seed) always yields the same tokens.
std::vector<Token> GenerateTokens(NodeId node, int count, uint64_t seed);

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_RING_TOKEN_RING_H_
