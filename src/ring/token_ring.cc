#include "src/ring/token_ring.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace scalecheck {

bool KeyRange::Contains(Token key) const {
  if (start == end) {
    return true;  // full ring (single-entry ring)
  }
  if (start < end) {
    return key > start && key <= end;
  }
  // Wrapping range.
  return key > start || key <= end;
}

void TokenRing::AddNode(NodeId node, const std::vector<Token>& tokens) {
  CHECK(!tokens.empty()) << "node" << node << "needs at least one token";
  CHECK_EQ(tokens_by_node_.count(node), 0u) << "node" << node << "already in ring";
  for (Token t : tokens) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), t,
        [](const RingEntry& e, Token token) { return e.token < token; });
    CHECK(it == entries_.end() || it->token != t)
        << "token collision at" << static_cast<long long>(t);
    entries_.insert(it, RingEntry{t, node});
  }
  TokenSlice slice{static_cast<uint32_t>(token_storage_.size()),
                   static_cast<uint32_t>(tokens.size())};
  token_storage_.insert(token_storage_.end(), tokens.begin(), tokens.end());
  std::sort(token_storage_.begin() + slice.offset, token_storage_.end());
  tokens_by_node_[node] = slice;
}

void TokenRing::RemoveNode(NodeId node) {
  auto it = tokens_by_node_.find(node);
  CHECK(it != tokens_by_node_.end()) << "node" << node << "not in ring";
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [node](const RingEntry& e) { return e.owner == node; }),
                 entries_.end());
  // The storage slice becomes a hole; slices are never reused, so no other
  // node's view is disturbed.
  tokens_by_node_.erase(node);
}

TokenSpan TokenRing::TokensOf(NodeId node) const {
  auto it = tokens_by_node_.find(node);
  CHECK(it != tokens_by_node_.end()) << "node" << node << "not in ring";
  return TokenSpan{token_storage_.data() + it->second.offset, it->second.len};
}

std::vector<NodeId> TokenRing::Nodes() const {
  std::vector<NodeId> nodes;
  nodes.reserve(tokens_by_node_.size());
  for (const auto& [node, tokens] : tokens_by_node_) {
    nodes.push_back(node);
  }
  return nodes;
}

size_t TokenRing::OwnerIndex(Token key) const {
  CHECK(!entries_.empty()) << "empty ring";
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const RingEntry& e, Token token) { return e.token < token; });
  if (it == entries_.end()) {
    return 0;  // wrap: keys beyond the last token belong to the first
  }
  return static_cast<size_t>(it - entries_.begin());
}

std::vector<NodeId> TokenRing::NaturalEndpointsForKey(Token key, int rf) const {
  std::vector<NodeId> replicas;
  NaturalEndpointsForKey(key, rf, &replicas);
  return replicas;
}

void TokenRing::NaturalEndpointsForKey(Token key, int rf,
                                       std::vector<NodeId>* out) const {
  CHECK_GT(rf, 0);
  std::vector<NodeId>& replicas = *out;
  replicas.clear();
  if (entries_.empty()) {
    return;
  }
  replicas.reserve(std::min(static_cast<size_t>(rf), entries_.size()));
  size_t start = OwnerIndex(key);
  for (size_t walked = 0; walked < entries_.size(); ++walked) {
    NodeId owner = entries_[(start + walked) % entries_.size()].owner;
    if (std::find(replicas.begin(), replicas.end(), owner) == replicas.end()) {
      replicas.push_back(owner);
      if (replicas.size() == static_cast<size_t>(rf)) {
        break;
      }
    }
  }
}

KeyRange TokenRing::RangeOfEntry(size_t i) const {
  CHECK_LT(i, entries_.size());
  size_t prev = (i + entries_.size() - 1) % entries_.size();
  return KeyRange{entries_[prev].token, entries_[i].token};
}

DigestValue TokenRing::ComputeDigest() const {
  Digest d;
  d.Add(static_cast<uint64_t>(entries_.size()));
  for (const RingEntry& e : entries_) {
    d.Add(static_cast<uint64_t>(e.token));
    d.Add(static_cast<int64_t>(e.owner));
  }
  return d.Finish();
}

std::vector<Token> GenerateTokens(NodeId node, int count, uint64_t seed) {
  CHECK_GT(count, 0);
  Rng rng(HashCombine(seed, Mix64(static_cast<uint64_t>(node) + 0x1234)));
  std::vector<Token> tokens;
  tokens.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    tokens.push_back(rng.Next());
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  // Collisions in a 64-bit space are absurdly unlikely; regenerate any lost.
  while (tokens.size() < static_cast<size_t>(count)) {
    tokens.push_back(rng.Next());
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  }
  return tokens;
}

}  // namespace scalecheck
