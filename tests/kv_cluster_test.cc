// KV data path riding on a live cluster.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/kv/kv_service.h"

namespace scalecheck {
namespace {

Cluster::Options KvCluster(int n, WorkloadKind kind = WorkloadKind::kSteadyState) {
  ClusterConfig config;
  config.initial_nodes = n;
  config.calc_version = CalcVersion::kV3C3881Fix;
  config.run_mode = RunMode::kRealScale;
  config.kv.enabled = true;
  config.seed = 31337;
  WorkloadSpec wl;
  wl.kind = kind;
  wl.target = n / 2;
  wl.horizon = VirtualDuration::Seconds(120);
  Cluster::Options options;
  options.config = config;
  options.workload = wl;
  return options;
}

TEST(KvClusterTest, WriteThenReadRoundTrips) {
  Cluster cluster(KvCluster(8));
  KvOutcome write_outcome = KvOutcome::kTimeout;
  KvOutcome read_outcome = KvOutcome::kTimeout;
  std::string read_value;

  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    cluster.node(0)->kv()->Write(777, "the-value", [&](KvOutcome o, std::string) {
      write_outcome = o;
      // Read from a different coordinator once the write finished.
      cluster.node(3)->kv()->Read(777, [&](KvOutcome ro, std::string v) {
        read_outcome = ro;
        read_value = std::move(v);
      });
    });
  });
  cluster.Run();
  EXPECT_EQ(write_outcome, KvOutcome::kOk);
  EXPECT_EQ(read_outcome, KvOutcome::kOk);
  EXPECT_EQ(read_value, "the-value");
}

TEST(KvClusterTest, ReadOfAbsentKeyIsOkAndEmpty) {
  Cluster cluster(KvCluster(8));
  KvOutcome outcome = KvOutcome::kTimeout;
  std::string value = "sentinel";
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    cluster.node(1)->kv()->Read(424242, [&](KvOutcome o, std::string v) {
      outcome = o;
      value = std::move(v);
    });
  });
  cluster.Run();
  EXPECT_EQ(outcome, KvOutcome::kOk);
  EXPECT_TRUE(value.empty());
}

TEST(KvClusterTest, QuorumSurvivesOneReplicaCrash) {
  Cluster cluster(KvCluster(8));
  KvOutcome outcome = KvOutcome::kUnavailable;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    // Find the replicas of key 99 and crash one of them.
    std::vector<NodeId> replicas =
        cluster.node(0)->core().ring().NaturalEndpointsForKey(KvTokenForKey(99), 3);
    ASSERT_EQ(replicas.size(), 3u);
    NodeId victim = replicas[0] == 0 ? replicas[1] : replicas[0];
    cluster.node(victim)->Crash();
    cluster.node(0)->kv()->Write(99, "v", [&](KvOutcome o, std::string) {
      outcome = o;
    });
  });
  cluster.Run();
  // 2 of 3 replicas up: the write reaches quorum (possibly after acking from
  // the live pair while the request to the dead one is dropped).
  EXPECT_EQ(outcome, KvOutcome::kOk);
}

TEST(KvClusterTest, UnavailableWhenCoordinatorConvictedReplicas) {
  Cluster cluster(KvCluster(8));
  KvOutcome outcome = KvOutcome::kOk;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    // Simulate the flap-storm effect directly: the coordinator's liveness
    // view marks two replicas of the key dead (even though they are fine).
    Node* coordinator = cluster.node(0);
    std::vector<NodeId> replicas =
      coordinator->core().ring().NaturalEndpointsForKey(KvTokenForKey(99), 3);
    int marked = 0;
    for (NodeId replica : replicas) {
      if (replica != 0 && marked < 2) {
        // Reach in via the gossiper the coordinator consults.
        const_cast<Gossiper&>(coordinator->core().gossiper()).MarkDead(replica);
        ++marked;
      }
    }
    ASSERT_GE(marked, 2);
    coordinator->kv()->Write(99, "v", [&](KvOutcome o, std::string) { outcome = o; });
  });
  cluster.Run();
  EXPECT_EQ(outcome, KvOutcome::kUnavailable);
}

TEST(KvClusterTest, QuorumReadReturnsNewestVersion) {
  // Write twice through different coordinators; the read must resolve to the
  // newest version even if a stale replica answers first.
  Cluster cluster(KvCluster(8));
  std::string read_value;
  KvOutcome read_outcome = KvOutcome::kTimeout;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    cluster.node(0)->kv()->Write(555, "first", [&](KvOutcome, std::string) {
      cluster.node(0)->kv()->Write(555, "second", [&](KvOutcome, std::string) {
        cluster.node(5)->kv()->Read(555, [&](KvOutcome o, std::string v) {
          read_outcome = o;
          read_value = std::move(v);
        });
      });
    });
  });
  cluster.Run();
  EXPECT_EQ(read_outcome, KvOutcome::kOk);
  EXPECT_EQ(read_value, "second");
}

TEST(KvClusterTest, StorageTimestampsTrackVersions) {
  StorageEngine engine;
  EXPECT_EQ(engine.TimestampOf(1), 0);
  engine.Put(1, "a", 5);
  EXPECT_EQ(engine.TimestampOf(1), 5);
  engine.Put(1, "b", 9);
  EXPECT_EQ(engine.TimestampOf(1), 9);
}

TEST(KvClusterTest, LoadDriverAggregatesIntoRunResult) {
  Cluster::Options options = KvCluster(8);
  options.kv_ops_per_second = 50;
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();
  int64_t total = r.kv_ok + r.kv_unavailable + r.kv_timeout;
  EXPECT_GT(total, 1000);
  EXPECT_EQ(r.kv_unavailable, 0);  // steady state
  EXPECT_EQ(r.kv_timeout, 0);
  EXPECT_GT(r.kv_latency_p99.nanos(), 0);
  EXPECT_LT(r.kv_latency_p99, VirtualDuration::Millis(100));
}

TEST(KvClusterTest, StorageStateAccumulates) {
  Cluster::Options options = KvCluster(8);
  options.kv_ops_per_second = 100;
  Cluster cluster(std::move(options));
  cluster.Run();
  int64_t total_entries = 0;
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    total_entries += cluster.node(static_cast<NodeId>(i))->kv()->storage().total_entries();
  }
  EXPECT_GT(total_entries, 100);  // writes landed in storage engines
}

}  // namespace
}  // namespace scalecheck
