// Workload-level integration tests: every protocol the paper lists (§3)
// must run, settle, and leave consistent cluster state.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/scalecheck/scale_check.h"

namespace scalecheck {
namespace {

Cluster::Options SmallCluster(WorkloadKind kind, int n = 12) {
  ClusterConfig config;
  config.initial_nodes = n;
  config.calc_version = CalcVersion::kV2C3831Fix;
  config.run_mode = RunMode::kRealScale;
  config.seed = 2024;
  WorkloadSpec wl;
  wl.kind = kind;
  wl.target = n / 2;
  wl.joining_nodes = kind == WorkloadKind::kScaleOut ? 3 : 0;
  if (kind == WorkloadKind::kRebalance) {
    wl.joining_nodes = 1;
  }
  wl.horizon = VirtualDuration::Seconds(300);
  Cluster::Options options;
  options.config = config;
  options.workload = wl;
  return options;
}

TEST(WorkloadTest, DecommissionRemovesTargetFromAllRings) {
  Cluster cluster(SmallCluster(WorkloadKind::kDecommission));
  RunResult r = cluster.Run();
  ASSERT_TRUE(r.settled) << r.Summary();
  NodeId target = 6;
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    Node* node = cluster.node(static_cast<NodeId>(i));
    if (node->id() == target) {
      continue;
    }
    EXPECT_FALSE(node->core().ring().HasNode(target)) << "node " << i;
    EXPECT_TRUE(node->core().pending_changes().empty()) << "node " << i;
    // The departed node must not be producing flap noise.
    EXPECT_FALSE(node->core().gossiper().IsAlive(target));
  }
}

TEST(WorkloadTest, ScaleOutAddsJoinersEverywhere) {
  Cluster cluster(SmallCluster(WorkloadKind::kScaleOut));
  RunResult r = cluster.Run();
  ASSERT_TRUE(r.settled) << r.Summary();
  EXPECT_EQ(cluster.total_nodes(), 15u);
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    Node* node = cluster.node(static_cast<NodeId>(i));
    for (NodeId joiner = 12; joiner < 15; ++joiner) {
      EXPECT_TRUE(node->core().ring().HasNode(joiner))
          << "node " << i << " missing joiner " << joiner;
    }
    EXPECT_EQ(node->core().ring().num_nodes(), 15u) << "node " << i;
  }
}

TEST(WorkloadTest, FreshBootstrapConvergesFromNothing) {
  Cluster cluster(SmallCluster(WorkloadKind::kBootstrapFresh));
  RunResult r = cluster.Run();
  ASSERT_TRUE(r.settled) << r.Summary();
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    Node* node = cluster.node(static_cast<NodeId>(i));
    EXPECT_EQ(node->core().ring().num_nodes(), cluster.total_nodes()) << "node " << i;
    EXPECT_EQ(node->core().my_status(), StatusKind::kNormal);
  }
}

TEST(WorkloadTest, FailoverConvictsTheCrashedNodeEverywhere) {
  Cluster cluster(SmallCluster(WorkloadKind::kFailover));
  RunResult r = cluster.Run();
  ASSERT_TRUE(r.settled) << r.Summary();
  EXPECT_EQ(r.crashed_nodes, 1);
  NodeId target = 6;
  // Every survivor convicted the dead node => at least N-1 flaps.
  EXPECT_GE(r.flaps, static_cast<int64_t>(cluster.total_nodes()) - 1);
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    if (static_cast<NodeId>(i) == target) {
      continue;
    }
    EXPECT_FALSE(cluster.node(static_cast<NodeId>(i))->core().gossiper().IsAlive(target));
  }
}

TEST(WorkloadTest, RebalanceReplacesNode) {
  Cluster cluster(SmallCluster(WorkloadKind::kRebalance));
  RunResult r = cluster.Run();
  ASSERT_TRUE(r.settled) << r.Summary();
  NodeId target = 6;
  NodeId replacement = 12;
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    Node* node = cluster.node(static_cast<NodeId>(i));
    if (node->id() == target) {
      continue;
    }
    EXPECT_FALSE(node->core().ring().HasNode(target)) << "node " << i;
    EXPECT_TRUE(node->core().ring().HasNode(replacement)) << "node " << i;
  }
}

TEST(WorkloadTest, SteadyStateIsQuiet) {
  Cluster::Options options = SmallCluster(WorkloadKind::kSteadyState);
  options.workload.horizon = VirtualDuration::Seconds(120);
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();
  EXPECT_EQ(r.flaps, 0);
  EXPECT_EQ(r.calc_invocations, 0);  // no membership changes, no recalcs
  EXPECT_GT(r.messages_delivered, 100u);
}

TEST(WorkloadTest, MessageLossToleratedByGossip) {
  Cluster::Options options = SmallCluster(WorkloadKind::kScaleOut);
  options.network.loss_probability = 0.05;  // 5% drops
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();
  EXPECT_TRUE(r.settled) << r.Summary();  // anti-entropy still converges
}

TEST(WorkloadTest, CrashDuringDecommissionDoesNotWedgeTheRun) {
  Cluster::Options options = SmallCluster(WorkloadKind::kDecommission);
  Cluster cluster(std::move(options));
  // Kill a bystander mid-protocol.
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(30),
                              [&cluster] { cluster.node(2)->Crash(); });
  RunResult r = cluster.Run();
  // The run completes and the crashed node is convicted by survivors.
  EXPECT_GE(r.flaps, 1);
  EXPECT_TRUE(cluster.node(2)->crashed());
}

}  // namespace
}  // namespace scalecheck
