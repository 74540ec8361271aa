// Crash-vs-lock interaction: a node that dies mid-calculation must not take
// its SimMutex state with it. Unit tests pin the ResetForCrash contract
// (force-release, waiter drop, epoch-guarded stale grants); the cluster
// tests kill a node while its recalculation is in flight — for every
// CalcPlacement strategy — and check the deployment recovers.

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/scale_check.h"
#include "src/sim/sync.h"

namespace scalecheck {
namespace {

TEST(SimMutexCrashTest, ResetForcesReleaseAndDropsWaiters) {
  Simulator sim(1);
  SimMutex mutex(&sim, "m");
  mutex.Acquire([] {});
  bool waiter_granted = false;
  mutex.Acquire([&] { waiter_granted = true; });
  ASSERT_TRUE(mutex.locked());
  ASSERT_EQ(mutex.waiters(), 1u);

  mutex.ResetForCrash();
  sim.RunUntilIdle();
  EXPECT_FALSE(mutex.locked());
  EXPECT_EQ(mutex.waiters(), 0u);
  EXPECT_FALSE(waiter_granted);  // the waiter died with the process
  EXPECT_EQ(mutex.crash_releases(), 1u);
}

TEST(SimMutexCrashTest, ResetOfUnheldMutexIsANoOp) {
  Simulator sim(1);
  SimMutex mutex(&sim, "m");
  mutex.ResetForCrash();
  EXPECT_EQ(mutex.crash_releases(), 0u);
  bool granted = false;
  mutex.Acquire([&] { granted = true; });
  EXPECT_TRUE(granted);
  mutex.Release();
}

TEST(SimMutexCrashTest, StaleDeferredGrantIsEpochGuarded) {
  Simulator sim(1);
  SimMutex mutex(&sim, "m");
  mutex.Acquire([] {});
  bool waiter_granted = false;
  mutex.Acquire([&] { waiter_granted = true; });
  // Release schedules the waiter's grant as a zero-delay event; the crash
  // lands before that event runs. The stale grant must not re-lock the mutex
  // for a thread that no longer exists.
  mutex.Release();
  mutex.ResetForCrash();
  sim.RunUntilIdle();
  EXPECT_FALSE(waiter_granted);
  EXPECT_FALSE(mutex.locked());
}

TEST(SimMutexCrashTest, UsableAgainAfterReset) {
  Simulator sim(1);
  SimMutex mutex(&sim, "m");
  mutex.Acquire([] {});
  mutex.ResetForCrash();
  std::vector<int> order;
  mutex.Acquire([&] { order.push_back(0); });
  mutex.Acquire([&] { order.push_back(1); });
  mutex.Release();
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  mutex.Release();
}

// Kills `victim` the moment its pending-range recalculation is in flight
// (lock held for the lock-based placements), restarts it 20 virtual seconds
// later, and requires the node to come back NORMAL with its lock free.
// Returns whether the victim's ring lock was held at the instant of death.
bool KillDuringRecalc(const BugSpec& spec) {
  const NodeId victim = 5;  // not a contact (0..2), not the workload target
  Cluster cluster(spec.MakeClusterOptions(16, RunMode::kRealScale, 42));
  Node* node = cluster.node(victim);

  bool killed = false;
  bool lock_held_at_death = false;
  std::function<void()> poll = [&] {
    if (!killed && (node->core().recalc_inflight() || node->ring_lock().locked())) {
      killed = true;
      lock_held_at_death = node->ring_lock().locked();
      node->Crash();
      cluster.sim().ScheduleAfter(VirtualDuration::Seconds(20),
                                  [node] { node->Restart({0, 1, 2}); });
      return;
    }
    if (!killed) {
      // Fine-grained so even a short recalc window (small N is fast — that is
      // the paper's point) cannot slip between polls.
      cluster.sim().ScheduleAfter(VirtualDuration::Micros(250), poll);
    }
  };
  cluster.sim().ScheduleAfter(VirtualDuration::Micros(250), poll);

  RunResult result = cluster.Run();
  EXPECT_TRUE(killed) << spec.id << ": recalc never observed in flight";
  EXPECT_FALSE(node->crashed()) << spec.id;
  EXPECT_FALSE(node->ring_lock().locked()) << spec.id;
  EXPECT_EQ(node->core().my_status(), StatusKind::kNormal) << spec.id;
  EXPECT_TRUE(result.settled) << spec.id << ": " << result.Summary();
  if (lock_held_at_death) {
    EXPECT_EQ(node->ring_lock().crash_releases(), 1u) << spec.id;
  }
  return lock_held_at_death;
}

TEST(ClusterCrashTest, KillDuringInlineStageCalc) {
  // Inline placement never takes the ring lock; this pins the plain
  // crash-while-calculating path.
  KillDuringRecalc(BugCatalog::Get("C3831"));
}

TEST(ClusterCrashTest, KillWhileHoldingCoarseRingLock) {
  // The coarse-lock placement holds the ring lock for the whole calculation
  // (that is bug C5456), so death-during-recalc is death-while-holding.
  bool lock_held = KillDuringRecalc(BugCatalog::Get("C5456"));
  EXPECT_TRUE(lock_held);
}

TEST(ClusterCrashTest, KillDuringCloneLockCalc) {
  // The clone placement holds the lock only for the snapshot; the kill may
  // land inside or outside that window — both must recover.
  KillDuringRecalc(BugCatalog::Get("C5456-fixed"));
}

}  // namespace
}  // namespace scalecheck
