// Merkle-tree tests (src/kv/merkle.h): the determinism and incrementality
// contracts anti-entropy repair rests on, the diff walk against a
// brute-force leaf comparison, and the wire codec's strict decode of the
// repair payloads (truncation at every prefix, corrupt level/index fields,
// trailing garbage — all rejected, never crashed on).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/kv/anti_entropy.h"
#include "src/kv/kv_service.h"
#include "src/kv/merkle.h"
#include "src/net/wire.h"

namespace scalecheck {
namespace {

// ---------------------------------------------------------------------------
// Determinism / incrementality.

TEST(MerkleTree, HashIndependentOfBuildOrder) {
  Rng rng(0x6d65726bULL);
  std::vector<std::pair<uint64_t, int64_t>> pairs;
  for (int i = 0; i < 500; ++i) {
    pairs.emplace_back(rng.Next(), static_cast<int64_t>(i + 1));
  }
  MerkleTree forward;
  for (const auto& [key, ts] : pairs) forward.Apply(key, ts);
  std::vector<std::pair<uint64_t, int64_t>> shuffled = pairs;
  rng.Shuffle(&shuffled);
  MerkleTree scrambled;
  for (const auto& [key, ts] : shuffled) scrambled.Apply(key, ts);

  EXPECT_EQ(forward.Root(), scrambled.Root());
  // Every interior node and leaf, not just the root.
  for (int level = 0; level <= forward.depth(); ++level) {
    for (uint64_t index = 0; index < (uint64_t{1} << level); ++index) {
      ASSERT_EQ(forward.HashOfNode(level, index, {}),
                scrambled.HashOfNode(level, index, {}))
          << "level " << level << " index " << index;
    }
  }
}

TEST(MerkleTree, IncrementalUpdatesMatchFullRebuild) {
  Rng rng(0x7265626cULL);
  MerkleTree incremental;
  std::map<uint64_t, int64_t> truth;  // final key -> winning timestamp
  // A churny update stream: repeated keys, newer and older timestamps mixed.
  for (int i = 0; i < 2000; ++i) {
    uint64_t key = rng.Next() % 300;
    int64_t ts = rng.UniformInt(1, 1000);
    incremental.Apply(key, ts);
    int64_t& winner = truth[key];
    winner = std::max(winner, ts);
  }
  MerkleTree rebuilt;
  for (const auto& [key, ts] : truth) rebuilt.Apply(key, ts);

  EXPECT_EQ(incremental.num_keys(), truth.size());
  for (int level = 0; level <= incremental.depth(); ++level) {
    for (uint64_t index = 0; index < (uint64_t{1} << level); ++index) {
      ASSERT_EQ(incremental.HashOfNode(level, index, {}),
                rebuilt.HashOfNode(level, index, {}))
          << "level " << level << " index " << index;
    }
  }
}

TEST(MerkleTree, OlderTimestampIsLwwNoOp) {
  MerkleTree tree;
  tree.Apply(42, 100);
  DigestValue before = tree.Root();
  tree.Apply(42, 50);  // older: must not change anything
  EXPECT_EQ(tree.Root(), before);
  tree.Apply(42, 100);  // equal: idempotent
  EXPECT_EQ(tree.Root(), before);
  tree.Apply(42, 101);  // newer: must change the summary
  EXPECT_NE(tree.Root(), before);
}

TEST(MerkleTree, EmptyTreesAgreeAndSingleKeyIsLocalized) {
  MerkleTree a;
  MerkleTree b;
  EXPECT_EQ(a.Root(), b.Root());
  EXPECT_EQ(a.Root(), (DigestValue{0, 0}));

  b.Apply(7, 1);
  EXPECT_NE(a.Root(), b.Root());
  // Exactly one leaf differs: the one 7's token lands in.
  uint64_t hot = b.LeafOfToken(KvTokenForKey(7));
  int leaves = b.depth();
  int differing = 0;
  for (uint64_t leaf = 0; leaf < b.num_leaves(); ++leaf) {
    if (a.HashOfNode(leaves, leaf, {}) != b.HashOfNode(leaves, leaf, {})) {
      ++differing;
      EXPECT_EQ(leaf, hot);
    }
  }
  EXPECT_EQ(differing, 1);
}

TEST(MerkleTree, KeysInLeafStayInTokenOrder) {
  // A shallow tree so every leaf holds many keys.
  MerkleTree tree(2);
  Rng rng(0x6c656166ULL);
  std::map<Token, std::pair<uint64_t, int64_t>> truth;  // token -> (key, ts)
  for (int i = 0; i < 3000; ++i) {
    const uint64_t key = rng.Next() % 1200;
    const int64_t ts = rng.UniformInt(1, 500);
    tree.Apply(key, ts);
    auto [it, fresh] = truth.emplace(KvTokenForKey(key), std::make_pair(key, ts));
    if (!fresh && ts > it->second.second) it->second.second = ts;
  }
  ASSERT_EQ(tree.num_keys(), truth.size());
  const std::vector<KeyRange> mask = {KeyRange{Token{1} << 61, Token{5} << 61},
                                      KeyRange{Token{7} << 61, Token{1} << 60}};
  for (const std::vector<KeyRange>& m : {std::vector<KeyRange>{}, mask}) {
    for (uint64_t leaf = 0; leaf < tree.num_leaves(); ++leaf) {
      std::vector<std::pair<uint64_t, int64_t>> want;
      for (const auto& [token, kt] : truth) {
        bool in_mask = m.empty();
        for (const KeyRange& r : m) in_mask = in_mask || r.Contains(token);
        if (tree.LeafOfToken(token) == leaf && in_mask) want.push_back(kt);
      }
      EXPECT_EQ(tree.KeysInLeaf(leaf, m), want) << "leaf " << leaf;
    }
  }
}

TEST(MerkleTree, ClearEmptiesTheTreeAndItRebuildsIdentically) {
  MerkleTree fresh;
  const int64_t empty_bytes = fresh.ApproxBytes();
  MerkleTree tree;
  for (uint64_t key = 0; key < 200; ++key) tree.Apply(key, 3);
  const DigestValue root = tree.Root();
  tree.Clear();
  EXPECT_EQ(tree.num_keys(), 0u);
  EXPECT_EQ(tree.Root(), fresh.Root());
  EXPECT_EQ(tree.ApproxBytes(), empty_bytes);
  for (uint64_t leaf = 0; leaf < tree.num_leaves(); ++leaf) {
    ASSERT_TRUE(tree.KeysInLeaf(leaf, {}).empty());
  }
  // An older timestamp is not shadowed by the forgotten version.
  tree.Apply(5, 1);
  EXPECT_EQ(tree.KeysInLeaf(tree.LeafOfToken(KvTokenForKey(5)), {}),
            (std::vector<std::pair<uint64_t, int64_t>>{{5, 1}}));
  tree.Clear();
  for (uint64_t key = 200; key-- > 0;) tree.Apply(key, 3);
  EXPECT_EQ(tree.Root(), root);
}

TEST(MerkleTree, ApproxBytesChargesKeysAndLeaves) {
  // The formula MemoryModel is charged with: 72 bytes per key, 16 per leaf,
  // 64 fixed. Construction charges no keys; an LWW update adds nothing.
  MerkleTree tree;
  EXPECT_EQ(tree.ApproxBytes(), 1024 * 16 + 64);
  EXPECT_EQ(MerkleTree(4).ApproxBytes(), 16 * 16 + 64);
  for (uint64_t key = 0; key < 100; ++key) tree.Apply(key, 1);
  EXPECT_EQ(tree.ApproxBytes(), 100 * 72 + 1024 * 16 + 64);
  tree.Apply(7, 2);
  tree.Apply(8, 0);
  EXPECT_EQ(tree.ApproxBytes(), 100 * 72 + 1024 * 16 + 64);
}

// ---------------------------------------------------------------------------
// Diff walk vs brute force.

// The descent anti-entropy performs: compare (level, index) hashes, push
// children of differing interior nodes, collect differing leaves.
std::vector<uint64_t> DiffWalk(const MerkleTree& a, const MerkleTree& b,
                               const std::vector<KeyRange>& mask) {
  std::vector<uint64_t> leaves;
  std::deque<std::pair<int, uint64_t>> frontier = {{0, 0}};
  while (!frontier.empty()) {
    auto [level, index] = frontier.front();
    frontier.pop_front();
    if (a.HashOfNode(level, index, mask) == b.HashOfNode(level, index, mask)) {
      continue;
    }
    if (level == a.depth()) {
      leaves.push_back(index);
      continue;
    }
    frontier.push_back({level + 1, 2 * index});
    frontier.push_back({level + 1, 2 * index + 1});
  }
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

std::vector<uint64_t> BruteForceDiff(const MerkleTree& a, const MerkleTree& b,
                                     const std::vector<KeyRange>& mask) {
  std::vector<uint64_t> leaves;
  for (uint64_t leaf = 0; leaf < a.num_leaves(); ++leaf) {
    if (a.KeysInLeaf(leaf, mask) != b.KeysInLeaf(leaf, mask)) {
      leaves.push_back(leaf);
    }
  }
  return leaves;
}

TEST(MerkleTree, DiffWalkMatchesBruteForceOverRandomDivergence) {
  Rng rng(0x64696666ULL);
  for (int round = 0; round < 20; ++round) {
    MerkleTree a;
    MerkleTree b;
    // Shared base set.
    for (int i = 0; i < 400; ++i) {
      uint64_t key = rng.Next();
      int64_t ts = rng.UniformInt(1, 1'000'000);
      a.Apply(key, ts);
      b.Apply(key, ts);
    }
    // Random divergence: keys only a has, keys only b has, and keys where
    // one side saw a newer timestamp.
    int divergences = static_cast<int>(rng.UniformInt(0, 40));
    for (int i = 0; i < divergences; ++i) {
      uint64_t key = rng.Next();
      int64_t ts = rng.UniformInt(1, 1'000'000);
      switch (rng.UniformInt(0, 2)) {
        case 0:
          a.Apply(key, ts);
          break;
        case 1:
          b.Apply(key, ts);
          break;
        default:
          a.Apply(key, ts);
          b.Apply(key, ts + rng.UniformInt(1, 1000));
          break;
      }
    }
    ASSERT_EQ(DiffWalk(a, b, {}), BruteForceDiff(a, b, {}))
        << "round " << round;
  }
}

TEST(MerkleTree, MaskedDiffIsBlindToDivergenceOutsideTheMask) {
  Rng rng(0x6d61736bULL);
  // One mask covering a quarter of the token space, straddling leaf spans.
  std::vector<KeyRange> mask = {
      {0x1000000000000123ull, 0x5000000000000456ull}};
  auto in_mask = [&](Token t) {
    return t > mask[0].start && t <= mask[0].end;
  };
  MerkleTree a;
  MerkleTree b;
  int inside = 0;
  for (int i = 0; i < 2000; ++i) {
    uint64_t key = rng.Next();
    int64_t ts = rng.UniformInt(1, 1'000'000);
    // Divergent everywhere: only a gets the key.
    a.Apply(key, ts);
    if (in_mask(KvTokenForKey(key))) ++inside;
  }
  ASSERT_GT(inside, 0);
  // Restricted to the mask, the walk must find exactly the brute-force
  // masked diff; in particular hashes agree wherever the mask is empty.
  EXPECT_EQ(DiffWalk(a, b, mask), BruteForceDiff(a, b, mask));
  std::vector<KeyRange> empty_span = {
      {0x8000000000000000ull, 0x8000000000000001ull}};
  EXPECT_EQ(a.HashOfNode(0, 0, empty_span), b.HashOfNode(0, 0, empty_span));
}

// ---------------------------------------------------------------------------
// Wire codec: strict decode of the repair payloads.

Message Frame(int type, std::shared_ptr<const Payload> payload) {
  Message msg;
  msg.id = 777;
  msg.from = 2;
  msg.to = 5;
  msg.type = type;
  msg.payload = std::move(payload);
  return msg;
}

std::shared_ptr<KvRepairHashPayload> SampleHashPayload() {
  auto payload = std::make_shared<KvRepairHashPayload>();
  payload->session_id = 9001;
  payload->level = 3;
  payload->hashes = {{0, DigestValue{1, 2}},
                     {3, DigestValue{0xdeadbeefull, 0xcafef00dull}},
                     {7, DigestValue{42, 0}}};
  return payload;
}

std::shared_ptr<KvRepairDiffPayload> SampleDiffPayload() {
  auto payload = std::make_shared<KvRepairDiffPayload>();
  payload->session_id = 9001;
  payload->level = 3;
  payload->differing = {1, 3, 6};
  return payload;
}

TEST(RepairWireCodec, HashAndDiffPayloadsRoundTrip) {
  {
    Message in = Frame(kKvRepairHashReq, SampleHashPayload());
    Result<Message> out = wire::DecodeMessage(wire::EncodeMessage(in));
    ASSERT_TRUE(out.ok()) << out.status().message();
    auto decoded =
        std::static_pointer_cast<const KvRepairHashPayload>(out.value().payload);
    EXPECT_EQ(decoded->session_id, 9001u);
    EXPECT_EQ(decoded->level, 3u);
    ASSERT_EQ(decoded->hashes.size(), 3u);
    EXPECT_EQ(decoded->hashes[1].first, 3u);
    EXPECT_EQ(decoded->hashes[1].second, (DigestValue{0xdeadbeefull, 0xcafef00dull}));
  }
  {
    Message in = Frame(kKvRepairHashResp, SampleDiffPayload());
    Result<Message> out = wire::DecodeMessage(wire::EncodeMessage(in));
    ASSERT_TRUE(out.ok()) << out.status().message();
    auto decoded =
        std::static_pointer_cast<const KvRepairDiffPayload>(out.value().payload);
    EXPECT_EQ(decoded->session_id, 9001u);
    EXPECT_EQ(decoded->differing, (std::vector<uint64_t>{1, 3, 6}));
  }
}

TEST(RepairWireCodec, TruncationAtEveryPrefixRejected) {
  for (int type : {kKvRepairHashReq, kKvRepairHashResp}) {
    std::shared_ptr<const Payload> payload =
        type == kKvRepairHashReq
            ? std::shared_ptr<const Payload>(SampleHashPayload())
            : std::shared_ptr<const Payload>(SampleDiffPayload());
    std::string frame = wire::EncodeMessage(Frame(type, payload));
    for (size_t len = 0; len < frame.size(); ++len) {
      Result<Message> out = wire::DecodeMessage(frame.substr(0, len));
      EXPECT_FALSE(out.ok()) << "type " << type << " accepted a " << len
                             << "-byte prefix of a " << frame.size()
                             << "-byte frame";
    }
    EXPECT_TRUE(wire::DecodeMessage(frame).ok());
  }
}

TEST(RepairWireCodec, TrailingGarbageRejected) {
  std::string frame =
      wire::EncodeMessage(Frame(kKvRepairHashReq, SampleHashPayload()));
  Result<Message> out = wire::DecodeMessage(frame + "x");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
}

TEST(RepairWireCodec, AbsurdLevelRejected) {
  auto payload = SampleHashPayload();
  payload->level = 21;  // > kMaxMerkleLevel: a forged descent past any tree
  std::string frame = wire::EncodeMessage(Frame(kKvRepairHashReq, payload));
  EXPECT_FALSE(wire::DecodeMessage(frame).ok());

  auto diff = SampleDiffPayload();
  diff->level = 64;
  frame = wire::EncodeMessage(Frame(kKvRepairHashResp, diff));
  EXPECT_FALSE(wire::DecodeMessage(frame).ok());
}

TEST(RepairWireCodec, NonAscendingOrOutOfRangeIndicesRejected) {
  {
    auto payload = SampleHashPayload();
    payload->hashes = {{3, DigestValue{1, 1}}, {3, DigestValue{2, 2}}};
    std::string frame = wire::EncodeMessage(Frame(kKvRepairHashReq, payload));
    EXPECT_FALSE(wire::DecodeMessage(frame).ok()) << "duplicate index";
  }
  {
    auto payload = SampleHashPayload();
    payload->hashes = {{5, DigestValue{1, 1}}, {2, DigestValue{2, 2}}};
    std::string frame = wire::EncodeMessage(Frame(kKvRepairHashReq, payload));
    EXPECT_FALSE(wire::DecodeMessage(frame).ok()) << "descending index";
  }
  {
    auto payload = SampleHashPayload();
    payload->level = 3;
    payload->hashes = {{8, DigestValue{1, 1}}};  // 2^3 nodes: max index 7
    std::string frame = wire::EncodeMessage(Frame(kKvRepairHashReq, payload));
    EXPECT_FALSE(wire::DecodeMessage(frame).ok()) << "index out of range";
  }
  {
    auto diff = SampleDiffPayload();
    diff->differing = {6, 1};
    std::string frame = wire::EncodeMessage(Frame(kKvRepairHashResp, diff));
    EXPECT_FALSE(wire::DecodeMessage(frame).ok()) << "descending diff index";
  }
}

}  // namespace
}  // namespace scalecheck
