// Replay-divergence policy: what happens when a PIL replay misses the memo
// DB. kFallbackToModelled keeps the paper's iterative-memoization behaviour,
// kWarn taints the verdict, kStrict aborts the run — and in every case the
// drift report says what diverged first, where, and in what order context.

#include <gtest/gtest.h>

#include <memory>

#include "src/pil/boundary.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/scale_check.h"

namespace scalecheck {
namespace {

class ReplayPolicyFixture : public ::testing::Test {
 protected:
  ReplayPolicyFixture() : sim_(1) {
    MachineSpec spec;
    spec.cores = 1.0;
    spec.ctx_switch_penalty = 0.0;
    machine_ = std::make_unique<Machine>(&sim_, 0, spec);
    thread_ = std::make_unique<SimThread>(&sim_, machine_.get(), "t");
  }

  static PilBoundary::ComputeOutput Compute() {
    PilBoundary::ComputeOutput out;
    out.output = {0xaa, 0xbb};
    out.work = 1'000'000'000;
    return out;
  }

  void RunMissingReplay(PilBoundary* boundary) {
    Job job("f");
    boundary->Apply(
        &job, /*function=*/1, [] { return DigestValue{123, 456}; },
        [] { return Compute(); }, [](const std::vector<uint8_t>&, bool) {});
    thread_->Enqueue(std::move(job));
    sim_.RunUntilIdle();
  }

  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<SimThread> thread_;
};

TEST_F(ReplayPolicyFixture, FallbackRecordsDriftAndContinues) {
  MemoStore store;  // empty: guaranteed miss
  PilBoundary boundary(&sim_, PilMode::kReplay, &store, 1e9);
  ASSERT_EQ(boundary.replay_policy(), ReplayPolicy::kFallbackToModelled);

  RunMissingReplay(&boundary);
  const DriftReport& drift = boundary.drift();
  EXPECT_EQ(drift.misses, 1u);
  EXPECT_TRUE(drift.diverged);
  EXPECT_FALSE(drift.aborted);
  EXPECT_EQ(drift.first_function, 1u);
  EXPECT_EQ(drift.first_call_index, 0u);
  // Fallback still executed the modelled path to completion.
  EXPECT_NEAR(sim_.Now().seconds(), 1.0, 1e-6);
}

TEST_F(ReplayPolicyFixture, StrictAbortsTheSimulation) {
  MemoStore store;
  PilBoundary boundary(&sim_, PilMode::kReplay, &store, 1e9);
  boundary.set_replay_policy(ReplayPolicy::kStrict);

  // A sentinel event far in the future: a strict divergence must stop the
  // run before virtual time ever gets there.
  bool sentinel_ran = false;
  sim_.ScheduleAt(VirtualTime::FromNanos(VirtualDuration::Seconds(100).nanos()),
                  [&] { sentinel_ran = true; });
  RunMissingReplay(&boundary);

  EXPECT_TRUE(boundary.drift().diverged);
  EXPECT_TRUE(boundary.drift().aborted);
  EXPECT_FALSE(sentinel_ran);
  EXPECT_LT(sim_.Now().seconds(), 100.0);
}

TEST_F(ReplayPolicyFixture, PolicyNamesRoundTrip) {
  EXPECT_STREQ(ReplayPolicyName(ReplayPolicy::kFallbackToModelled), "fallback");
  EXPECT_STREQ(ReplayPolicyName(ReplayPolicy::kWarn), "warn");
  EXPECT_STREQ(ReplayPolicyName(ReplayPolicy::kStrict), "strict");
}

// ---- End-to-end through Cluster ------------------------------------------

RunResult ReplayAgainstEmptyStore(ReplayPolicy policy, uint64_t seed) {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.horizon = VirtualDuration::Seconds(90);
  spec.replay_policy = policy;
  MemoStore empty;  // nothing memoized: the replay diverges immediately
  Cluster::Options options = spec.MakeClusterOptions(16, RunMode::kPilReplay, seed);
  options.memo_store = &empty;
  return Cluster(std::move(options)).Run();
}

TEST(ReplayPolicyEndToEnd, FallbackDivergesButVerdictStaysOk) {
  RunResult r = ReplayAgainstEmptyStore(ReplayPolicy::kFallbackToModelled, 11);
  EXPECT_GT(r.replay_drift.misses, 0u);
  EXPECT_TRUE(r.replay_drift.diverged);
  EXPECT_FALSE(r.replay_drift.aborted);
  EXPECT_EQ(r.fidelity.verdict, FidelityVerdict::kOk) << r.fidelity.ToJson();
  // The drift report names the first divergent call precisely.
  EXPECT_FALSE(r.replay_drift.first_function.empty());
  EXPECT_FALSE(r.replay_drift.first_digest.empty());
  EXPECT_EQ(r.replay_drift.first_call_index, 0u);
}

TEST(ReplayPolicyEndToEnd, WarnDegradesTheVerdict) {
  RunResult r = ReplayAgainstEmptyStore(ReplayPolicy::kWarn, 11);
  EXPECT_TRUE(r.replay_drift.diverged);
  EXPECT_FALSE(r.replay_drift.aborted);
  EXPECT_EQ(r.fidelity.verdict, FidelityVerdict::kDegraded) << r.fidelity.ToJson();
  EXPECT_EQ(r.fidelity.violated_budget, "replay_divergence");
}

TEST(ReplayPolicyEndToEnd, StrictAbortsAndInvalidates) {
  RunResult strict = ReplayAgainstEmptyStore(ReplayPolicy::kStrict, 11);
  EXPECT_TRUE(strict.replay_drift.aborted);
  EXPECT_EQ(strict.fidelity.verdict, FidelityVerdict::kInvalid)
      << strict.fidelity.ToJson();
  EXPECT_EQ(strict.fidelity.violated_budget, "replay_divergence");

  // Aborting at the first divergence does strictly less work than falling
  // back and running the horizon out.
  RunResult fallback = ReplayAgainstEmptyStore(ReplayPolicy::kFallbackToModelled, 11);
  EXPECT_LE(strict.replay_drift.misses, fallback.replay_drift.misses);
  EXPECT_LT(strict.pil.replay_misses + strict.pil.replay_hits,
            fallback.pil.replay_misses + fallback.pil.replay_hits);
}

TEST(ReplayPolicyEndToEnd, StrictAbortIsDeterministic) {
  RunResult a = ReplayAgainstEmptyStore(ReplayPolicy::kStrict, 42);
  RunResult b = ReplayAgainstEmptyStore(ReplayPolicy::kStrict, 42);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(ReplayPolicyEndToEnd, FaithfulReplayReportsNoAbort) {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.horizon = VirtualDuration::Seconds(90);
  spec.replay_policy = ReplayPolicy::kStrict;

  MemoStore store;
  Cluster::Options memoize_options = spec.MakeClusterOptions(16, RunMode::kMemoize, 11);
  memoize_options.memo_store = &store;
  Cluster(std::move(memoize_options)).Run();

  Cluster::Options replay_options = spec.MakeClusterOptions(16, RunMode::kPilReplay, 11);
  replay_options.memo_store = &store;
  RunResult r = Cluster(std::move(replay_options)).Run();
  EXPECT_GT(r.pil.replay_hits, 0u);
  EXPECT_FALSE(r.replay_drift.aborted) << r.ToJson();
  EXPECT_EQ(r.fidelity.verdict, FidelityVerdict::kOk) << r.fidelity.ToJson();
}

}  // namespace
}  // namespace scalecheck
