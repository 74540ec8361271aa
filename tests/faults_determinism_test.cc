// Determinism under fault injection: identical seed + identical FaultPlan
// must produce a byte-identical RunResult::ToJson() — including when the
// runs execute through the host-parallel ExperimentSuite, where `jobs` may
// never change a single output byte.

#include <gtest/gtest.h>

#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"
#include "src/scalecheck/scale_check.h"

namespace scalecheck {
namespace {

BugSpec ChaosSpec() {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(240);
  spec.fault_plan = "standard-chaos";
  spec.kv_ops_per_second = 25.0;
  return spec;
}

TEST(FaultsDeterminismTest, SameSeedSamePlanByteIdenticalJson) {
  BugSpec spec = ChaosSpec();
  RunResult a = RunSingle(spec, 16, RunMode::kRealScale, 1234);
  RunResult b = RunSingle(spec, 16, RunMode::kRealScale, 1234);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(FaultsDeterminismTest, DifferentSeedDifferentSchedule) {
  BugSpec spec = ChaosSpec();
  RunResult a = RunSingle(spec, 16, RunMode::kRealScale, 1);
  RunResult b = RunSingle(spec, 16, RunMode::kRealScale, 2);
  // A different seed moves every fault time, so the message stream differs.
  EXPECT_NE(a.messages_sent, b.messages_sent);
}

TEST(FaultsDeterminismTest, ExplicitPlanOverrideMatchesNamedPlan) {
  // The explicit schedule (how ChaosSearch candidates and repro artifacts
  // travel) runs exactly like the named plan it was materialized from.
  BugSpec spec = ChaosSpec();
  BugSpec explicit_spec = spec;
  explicit_spec.fault_plan = "none";
  explicit_spec.custom_faults = spec.MakeFaultPlan(16, 1234);
  RunResult with_override = RunSingle(explicit_spec, 16, RunMode::kRealScale, 1234);
  RunResult with_name = RunSingle(spec, 16, RunMode::kRealScale, 1234);
  EXPECT_EQ(with_override.ToJson(), with_name.ToJson());
}

TEST(FaultsDeterminismTest, MemoizeAndReplayApplyTheSameSchedule) {
  // The FaultPlan rides through BugSpec, so memoize and replay see the
  // identical chaos; replay must track the real run's fault counters.
  BugSpec spec = ChaosSpec();
  ScaleCheckResult full = RunComparison(spec, 16, 77);
  EXPECT_EQ(full.real.fault_events_applied, full.replay.fault_events_applied);
  EXPECT_EQ(full.real.fault_events_healed, full.replay.fault_events_healed);
  EXPECT_EQ(full.real.crashed_nodes, full.replay.crashed_nodes);
  EXPECT_EQ(full.real.restarted_nodes, full.replay.restarted_nodes);
  EXPECT_EQ(full.memoize.fault_events_applied, full.real.fault_events_applied);
}

TEST(FaultsDeterminismTest, IslandPlanEscapeHatchDrawsAreJobsInvariant) {
  // The gossip-to-unreachable escape hatch draws from each node's own rng_
  // stream, so host parallelism must not move a single Bernoulli draw: the
  // islanding plan (conviction + heal + escape-hatch recovery) must be
  // byte-identical at any --jobs.
  BugSpec spec = ChaosSpec();
  spec.fault_plan = "island";
  spec.horizon = VirtualDuration::Seconds(150);
  auto run_suite = [&spec](int jobs) {
    ExperimentSpec grid;
    grid.bugs = {spec};
    grid.modes = {RunMode::kRealScale, RunMode::kColocated};
    grid.scales = {12, 16};
    grid.seeds = {5, 6};
    grid.jobs = jobs;
    return ExperimentSuite(grid).Run().ToJson();
  };
  std::string serial = run_suite(1);
  std::string parallel = run_suite(4);
  EXPECT_EQ(serial, parallel);
  // The plan actually bit in every run: no cell reports zero blocked frames.
  EXPECT_EQ(serial.find("\"messages_blocked\":0,"), std::string::npos);
}

TEST(FaultsDeterminismTest, SuiteParallelismNeverChangesAByte) {
  BugSpec spec = ChaosSpec();
  spec.horizon = VirtualDuration::Seconds(210);
  auto run_suite = [&spec](int jobs) {
    ExperimentSpec grid;
    grid.bugs = {spec};
    grid.modes = {RunMode::kRealScale, RunMode::kColocated, RunMode::kMemoize,
                  RunMode::kPilReplay};
    grid.scales = {12, 16};
    grid.seeds = {5, 6};
    grid.jobs = jobs;
    return ExperimentSuite(grid).Run().ToJson();
  };
  std::string serial = run_suite(1);
  std::string parallel = run_suite(4);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace scalecheck
