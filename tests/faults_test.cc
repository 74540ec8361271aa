// FaultPlan / FaultInjector behavior: plans are seed-deterministic, every
// fault kind actually perturbs the deployment it targets, heals undo the
// perturbation, and the retrying KV client never loses a request.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/faults/fault_plan.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/scale_check.h"

namespace scalecheck {
namespace {

BugSpec SteadySpec(const char* plan, double kv_rate = 0.0) {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(180);
  spec.fault_plan = plan;
  spec.kv_ops_per_second = kv_rate;
  return spec;
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  FaultPlan a = FaultPlan::StandardChaos(64, 7);
  FaultPlan b = FaultPlan::StandardChaos(64, 7);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at.nanos(), b.events[i].at.nanos());
    EXPECT_EQ(a.events[i].nodes_a, b.events[i].nodes_a);
  }
  FaultPlan c = FaultPlan::StandardChaos(64, 8);
  EXPECT_NE(a.events[0].at.nanos(), c.events[0].at.nanos());
}

TEST(FaultPlanTest, VictimsAvoidContactsAndWorkloadTarget) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    FaultPlan plan = FaultPlan::StandardChaos(16, seed);
    for (const FaultEvent& ev : plan.events) {
      if (ev.kind == FaultKind::kCrash || ev.kind == FaultKind::kSlowNode ||
          ev.kind == FaultKind::kMemoryPressure) {
        for (NodeId v : ev.nodes_a) {
          EXPECT_GE(v, 3) << "contact point chosen as victim";
          EXPECT_NE(v, 8) << "workload target chosen as victim";
        }
      }
    }
  }
}

TEST(FaultInjectorTest, PartitionBlocksTrafficAndHeals) {
  BugSpec spec = SteadySpec("partition");
  // The stock 20s partition sits at the phi-conviction edge (silence must
  // exceed ~18x the mean heartbeat interval); stretch it so conviction is
  // certain and the test asserts behavior, not threshold luck.
  Cluster::Options options = spec.MakeClusterOptions(16, RunMode::kRealScale, 42);
  options.faults.events.at(0).duration = VirtualDuration::Seconds(60);
  RunResult result = Cluster(std::move(options)).Run();
  EXPECT_EQ(result.fault_events_applied, 1);
  EXPECT_EQ(result.fault_events_healed, 1);
  EXPECT_GT(result.messages_blocked, 0u);
  // The islanded nodes get convicted and must come back after the heal.
  EXPECT_GT(result.flaps, 0) << result.Summary();
  EXPECT_TRUE(result.settled) << result.Summary();
}

TEST(FaultInjectorTest, CrashRestartBringsTheNodeBack) {
  BugSpec spec = SteadySpec("crash-restart");
  Cluster::Options options = spec.MakeClusterOptions(16, RunMode::kRealScale, 42);
  NodeId victim = options.faults.events.at(0).nodes_a.at(0);
  Cluster cluster(std::move(options));
  RunResult result = cluster.Run();
  EXPECT_EQ(result.crashed_nodes, 1);
  EXPECT_EQ(result.restarted_nodes, 1);
  Node* node = cluster.node(victim);
  EXPECT_FALSE(node->crashed());
  EXPECT_EQ(node->core().my_status(), StatusKind::kNormal);
  EXPECT_TRUE(result.settled) << result.Summary();
  // Conviction on death + recovery on restart shows up as flapping.
  EXPECT_GT(result.flaps, 0) << result.Summary();
}

TEST(FaultInjectorTest, SlowNodeDegradesAndRecovers) {
  BugSpec spec = SteadySpec("slow-node");
  Cluster::Options options = spec.MakeClusterOptions(16, RunMode::kRealScale, 42);
  NodeId victim = options.faults.events.at(0).nodes_a.at(0);
  Cluster cluster(std::move(options));
  RunResult result = cluster.Run();
  EXPECT_EQ(result.fault_events_applied, 1);
  EXPECT_EQ(result.fault_events_healed, 1);
  // Healed: the machine runs at full speed again.
  EXPECT_DOUBLE_EQ(cluster.machines().MachineOf(victim)->cpu().speed_factor(), 1.0);
  EXPECT_TRUE(result.settled) << result.Summary();
}

TEST(FaultInjectorTest, MemoryPressureTriggersOom) {
  BugSpec spec = SteadySpec("memory-pressure");
  // The standard ballast (6 GB) is sized to squeeze, not kill; blow past the
  // machine budget to prove the existing OOM -> crash path fires.
  Cluster::Options options = spec.MakeClusterOptions(16, RunMode::kRealScale, 42);
  options.faults.events.at(0).ballast_bytes = 1LL << 40;
  RunResult result = Cluster(std::move(options)).Run();
  EXPECT_EQ(result.crashed_nodes, 1) << result.Summary();
}

TEST(FaultInjectorTest, KvConservationUnderStandardChaos) {
  BugSpec spec = SteadySpec("standard-chaos", /*kv_rate=*/50.0);
  spec.horizon = VirtualDuration::Seconds(240);
  RunResult result = RunSingle(spec, 16, RunMode::kRealScale, 42);
  EXPECT_GT(result.kv_issued, 0);
  // No request vanishes: each ends OK, ends as a counted give-up, or is
  // still in flight at the horizon.
  EXPECT_EQ(result.kv_issued, result.kv_ok + result.kv_unavailable +
                                  result.kv_timeout + result.kv_inflight_at_stop);
  EXPECT_EQ(result.kv_gave_up, result.kv_unavailable + result.kv_timeout);
  // Chaos makes some attempts fail; the bounded-retry client must have
  // actually retried.
  EXPECT_GT(result.kv_retries, 0);
}

}  // namespace
}  // namespace scalecheck
