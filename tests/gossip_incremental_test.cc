// The incremental-digest contract: the cached SYN digest list must always
// equal a brute-force recompute from the endpoint map, and maintaining it
// must cost O(changed endpoint states) per round — not O(N). The unit tests
// pin both properties directly on a Gossiper; the cluster tests assert the
// same bound end-to-end through SimProfiler counters from a real run, and
// that the cluster's shared payload pools recycle across nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/gossip/gossiper.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/scale_check.h"
#include "src/sim/profiler.h"

namespace scalecheck {
namespace {

// What MakeSynDigests must return, computed the slow way.
std::vector<GossipDigest> BruteForceDigests(const Gossiper& g) {
  std::vector<GossipDigest> out;
  for (const auto& [ep, state] : g.endpoints()) {
    out.push_back({ep, state.heartbeat().generation, state.MaxVersion()});
  }
  return out;
}

void ExpectDigestsMatch(const Gossiper& g) {
  std::vector<GossipDigest> got = g.MakeSynDigests();
  std::vector<GossipDigest> want = BruteForceDigests(g);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].endpoint, want[i].endpoint) << i;
    EXPECT_EQ(got[i].generation, want[i].generation) << i;
    EXPECT_EQ(got[i].max_version, want[i].max_version) << i;
  }
}

EndpointState PeerState(int64_t generation, int64_t heartbeat_version) {
  EndpointState s(generation);
  s.mutable_heartbeat().version = heartbeat_version;
  return s;
}

TEST(IncrementalDigest, CacheMatchesBruteForceThroughMutations) {
  Gossiper g(0, 1, {});
  ExpectDigestsMatch(g);  // just self

  for (NodeId ep = 1; ep <= 16; ++ep) {
    g.AddKnownEndpoint(ep, PeerState(1, 0));
  }
  ExpectDigestsMatch(g);

  g.IncrementHeartbeat();
  ExpectDigestsMatch(g);

  // Remote heartbeat advances via ApplyStates.
  EndpointStateMap updates;
  updates[3] = PeerState(1, 5);
  updates[9] = PeerState(1, 7);
  g.ApplyStates(updates);
  ExpectDigestsMatch(g);

  // Generation bump (peer restart) replaces wholesale.
  EndpointStateMap restart;
  restart[3] = PeerState(2, 1);
  g.ApplyStates(restart);
  ExpectDigestsMatch(g);

  // Membership changes force structural rebuilds.
  g.RemoveEndpoint(9);
  ExpectDigestsMatch(g);
  g.AddKnownEndpoint(40, PeerState(1, 2));
  ExpectDigestsMatch(g);

  VersionedValue v;
  v.status = StatusKind::kLeaving;
  g.SetLocalState(ApplicationStateKey::kStatus, v);
  ExpectDigestsMatch(g);
}

TEST(IncrementalDigest, SteadyStateRefreshesOnlyChangedEntries) {
  constexpr NodeId kPeers = 64;
  Gossiper g(0, 1, {});
  for (NodeId ep = 1; ep <= kPeers; ++ep) {
    g.AddKnownEndpoint(ep, PeerState(1, 0));
  }
  g.MakeSynDigests();  // warm the cache (one full rebuild)
  uint64_t full_before = g.digest_full_rebuilds();
  uint64_t refreshed_before = g.digest_entries_refreshed();

  // k peers advance; the next build must refresh exactly k entries.
  constexpr NodeId kChanged = 5;
  EndpointStateMap updates;
  for (NodeId ep = 1; ep <= kChanged; ++ep) {
    updates[ep] = PeerState(1, 10);
  }
  g.ApplyStates(updates);
  g.MakeSynDigests();
  EXPECT_EQ(g.digest_full_rebuilds(), full_before);
  EXPECT_EQ(g.digest_entries_refreshed() - refreshed_before,
            static_cast<uint64_t>(kChanged));

  // An unchanged round refreshes nothing.
  refreshed_before = g.digest_entries_refreshed();
  g.MakeSynDigests();
  g.MakeSynDigests();
  EXPECT_EQ(g.digest_entries_refreshed(), refreshed_before);

  // A duplicate delivery of old news (same versions) also refreshes nothing.
  g.ApplyStates(updates);
  g.MakeSynDigests();
  EXPECT_EQ(g.digest_entries_refreshed(), refreshed_before);
}

TEST(IncrementalDigest, MembershipChangeTriggersFullRebuild) {
  Gossiper g(0, 1, {});
  for (NodeId ep = 1; ep <= 8; ++ep) {
    g.AddKnownEndpoint(ep, PeerState(1, 0));
  }
  g.MakeSynDigests();
  uint64_t full_before = g.digest_full_rebuilds();
  g.AddKnownEndpoint(9, PeerState(1, 0));
  g.MakeSynDigests();
  EXPECT_EQ(g.digest_full_rebuilds(), full_before + 1);
}

TEST(IncrementalDigest, LiveViewMatchesBruteForceAcrossFlips) {
  Gossiper g(0, 1, {});
  for (NodeId ep = 1; ep <= 10; ++ep) {
    g.AddKnownEndpoint(ep, PeerState(1, 0));
    g.MarkAlive(ep);
  }
  EXPECT_EQ(g.LiveEndpointsView(), g.LiveEndpoints());
  g.MarkDead(4);
  g.MarkDead(7);
  EXPECT_EQ(g.LiveEndpointsView(), g.LiveEndpoints());
  g.MarkAlive(4);
  const std::vector<NodeId>& view = g.LiveEndpointsView();
  EXPECT_EQ(view, g.LiveEndpoints());
  EXPECT_EQ(view.size(), 9u);
  EXPECT_TRUE(std::is_sorted(view.begin(), view.end()));
}

// End-to-end: in a real deployment the per-node digest maintenance cost must
// be bounded by the updates actually applied (plus membership rebuilds and
// one self-bump per build), and far below the naive builds × N cost the old
// full-recompute design paid. The profiler that counts it must be a pure
// observer.
TEST(IncrementalDigest, ClusterRunCostIsBoundedByChanges) {
  // Large enough that gossip staleness (not cluster size) bounds what each
  // exchange ships; at toy scales every endpoint changes every round and the
  // incremental design has nothing to skip (at N=64 the win is only ~1.5x;
  // at 128 it is ~3x and grows with N).
  constexpr int kNodes = 128;
  BugSpec spec = BugCatalog::Get("C3831");
  SimProfiler profiler;
  Cluster::Options options = spec.MakeClusterOptions(kNodes, RunMode::kColocated, 7);
  options.profiler = &profiler;
  RunResult r = Cluster(std::move(options)).Run();
  ASSERT_TRUE(r.has_profile);
  const SimProfiler::Counters& c = r.profile;
  ASSERT_GT(c.digest_builds, 0u);
  ASSERT_GT(c.gossip_updates_applied, 0u);
  EXPECT_GT(r.events_executed, 0u);
  EXPECT_GT(r.messages_delivered, 0u);
  EXPECT_GT(c.payload_reuses, 0u) << "payload pool never recycled a buffer";

  // The profiled run's JSON minus its opt-in "profile" object is, byte for
  // byte, the unprofiled run's.
  RunResult unprofiled = r;
  unprofiled.has_profile = false;
  EXPECT_EQ(unprofiled.ToJson(), RunSingle(spec, kNodes, RunMode::kColocated, 7).ToJson());

  // Each full rebuild touches at most N entries (the endpoint map never
  // exceeds cluster size); each incremental refresh is accounted against an
  // applied update or the builder's own heartbeat bump.
  const uint64_t rebuild_entries =
      c.digest_full_rebuilds * static_cast<uint64_t>(kNodes);
  EXPECT_LE(c.digest_entries_refreshed,
            c.gossip_updates_applied + rebuild_entries + c.digest_builds);

  // The naive design recomputed every entry on every build. Demand at least
  // a 2x improvement even at this small scale; at N=512 the gap is ~20x.
  uint64_t naive_entries = c.digest_builds * static_cast<uint64_t>(kNodes);
  EXPECT_LT(c.digest_entries_refreshed + rebuild_entries, naive_entries / 2);
}

// The gossip payload pools belong to the cluster, not to each node: one free
// list serves every node's sends, so a quiet decommission recycles nearly
// every payload and allocates fewer than one per node. With a pool set per
// node this run allocated 203 payloads (each node's pools filled apart); the
// shared pools allocate 7.
TEST(IncrementalDigest, ClusterWidePayloadPoolsRecycleAcrossNodes) {
  constexpr int kNodes = 64;
  SimProfiler profiler;
  Cluster::Options options =
      BugCatalog::Get("C3831-fixed").MakeClusterOptions(kNodes, RunMode::kRealScale, 7);
  options.profiler = &profiler;
  RunResult r = Cluster(std::move(options)).Run();
  ASSERT_TRUE(r.has_profile);
  const SimProfiler::Counters& c = r.profile;
  const double reuse_ratio = static_cast<double>(c.payload_reuses) /
                             static_cast<double>(c.payload_reuses + c.payload_allocs);
  EXPECT_GE(reuse_ratio, 0.9);
  EXPECT_LT(c.payload_allocs, static_cast<uint64_t>(kNodes))
      << "per-node pools allocated 203 payloads on this run";
}

}  // namespace
}  // namespace scalecheck
