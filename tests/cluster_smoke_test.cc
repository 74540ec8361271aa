// End-to-end smoke tests: small clusters must behave sanely in every mode.

#include <gtest/gtest.h>

#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"

namespace scalecheck {
namespace {

TEST(ClusterSmoke, SteadyStateHasNoFlaps) {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(120);
  RunResult result = RunSingle(spec, 16, RunMode::kRealScale, 42);
  EXPECT_EQ(result.flaps, 0) << result.Summary();
  EXPECT_TRUE(result.settled);
  EXPECT_GT(result.messages_delivered, 1000u);
}

TEST(ClusterSmoke, DecommissionSettlesAtSmallScaleWithoutFlaps) {
  BugSpec spec = BugCatalog::Get("C3831");
  RunResult result = RunSingle(spec, 16, RunMode::kRealScale, 42);
  EXPECT_TRUE(result.settled) << result.Summary();
  EXPECT_EQ(result.flaps, 0) << result.Summary();
  EXPECT_GT(result.calc_invocations, 0);
}

TEST(ClusterSmoke, ScaleOutSettlesAtSmallScale) {
  BugSpec spec = BugCatalog::Get("C3881");
  RunResult result = RunSingle(spec, 16, RunMode::kRealScale, 42);
  EXPECT_TRUE(result.settled) << result.Summary();
  EXPECT_GT(result.calc_invocations, 0);
}

TEST(ClusterSmoke, DeterministicAcrossRuns) {
  BugSpec spec = BugCatalog::Get("C3831");
  RunResult a = RunSingle(spec, 12, RunMode::kRealScale, 7);
  RunResult b = RunSingle(spec, 12, RunMode::kRealScale, 7);
  EXPECT_EQ(a.flaps, b.flaps);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.test_duration.nanos(), b.test_duration.nanos());
}

TEST(ClusterSmoke, MemoizeThenReplayProducesHits) {
  BugSpec spec = BugCatalog::Get("C3831");
  ScaleCheckResult full = RunComparison(spec, 12, 99);
  EXPECT_TRUE(full.replay.settled) << full.replay.Summary();
  EXPECT_GT(full.memo.records, 0u);
  EXPECT_GT(full.replay.pil.replay_hits, 0u) << full.replay.Summary();
}

}  // namespace
}  // namespace scalecheck
