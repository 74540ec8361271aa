// Self-healing suite execution: a cell that blows its wall-clock budget is
// retried deterministically and, if it keeps hanging, quarantined — the sweep
// always completes, surviving cells are byte-identical to a sweep that never
// contained the poison cell, and host parallelism changes nothing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"

namespace scalecheck {
namespace {

BugSpec HealthySpec(const std::string& id) {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.id = id;
  spec.horizon = VirtualDuration::Seconds(60);
  return spec;
}

// A cell that can never finish inside its budget: the per-spec watchdog
// override is so small that the simulator's first budget check (after 512
// events — any real run has far more) always trips. Deterministic poison on
// every host, unlike a genuine hang.
BugSpec PoisonSpec(const std::string& id) {
  BugSpec spec = HealthySpec(id);
  spec.wall_budget_seconds = 1e-9;
  return spec;
}

TEST(SelfHealTest, WatchdogQuarantinesAfterBoundedRetries) {
  ExperimentSpec grid;
  grid.bugs = {PoisonSpec("poison")};
  grid.modes = {RunMode::kColocated};
  grid.scales = {16};
  grid.max_cell_attempts = 3;
  SuiteReport report = ExperimentSuite(grid).Run();

  ASSERT_EQ(report.runs().size(), 1u);
  const RunRecord& record = report.runs()[0];
  EXPECT_TRUE(record.quarantined);
  EXPECT_EQ(record.quarantine_reason, "watchdog");
  EXPECT_EQ(record.attempts, 3);
  EXPECT_EQ(report.quarantined_count(), 1u);
  // The partial result was dropped, never serialized.
  const std::string json = SuiteReport::RecordJson(record);
  EXPECT_NE(json.find("\"status\":\"quarantined\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"quarantine_reason\":\"watchdog\""), std::string::npos);
  EXPECT_EQ(json.find("\"result\""), std::string::npos) << json;
}

TEST(SelfHealTest, SweepCompletesAndSurvivorsMatchCleanSweepByteForByte) {
  // Mixed grid: one poison bug among two healthy ones.
  ExperimentSpec mixed;
  mixed.bugs = {HealthySpec("h1"), PoisonSpec("poison"), HealthySpec("h2")};
  mixed.modes = {RunMode::kRealScale, RunMode::kColocated};
  mixed.scales = {12, 16};
  SuiteReport mixed_report = ExperimentSuite(mixed).Run();

  // Control grid: the same sweep without the poison bug.
  ExperimentSpec clean;
  clean.bugs = {HealthySpec("h1"), HealthySpec("h2")};
  clean.modes = mixed.modes;
  clean.scales = mixed.scales;
  SuiteReport clean_report = ExperimentSuite(clean).Run();

  EXPECT_EQ(mixed_report.runs().size(), 12u);
  EXPECT_EQ(mixed_report.quarantined_count(), 4u);  // poison x 2 modes x 2 scales
  for (const RunRecord& record : mixed_report.runs()) {
    if (record.bug_id == "poison") {
      EXPECT_TRUE(record.quarantined);
      continue;
    }
    EXPECT_FALSE(record.quarantined) << record.bug_id;
    const RunRecord* control = clean_report.Find(record.bug_id, record.mode,
                                                 record.nodes, record.seed);
    ASSERT_NE(control, nullptr);
    EXPECT_EQ(SuiteReport::RecordJson(record), SuiteReport::RecordJson(*control))
        << record.bug_id << " n=" << record.nodes;
  }
}

TEST(SelfHealTest, ParallelExecutionMatchesSerialWithQuarantine) {
  auto build = [](int jobs) {
    ExperimentSpec grid;
    grid.bugs = {HealthySpec("h1"), PoisonSpec("poison")};
    grid.modes = {RunMode::kColocated, RunMode::kMemoize, RunMode::kPilReplay};
    grid.scales = {12, 16};
    grid.jobs = jobs;
    return ExperimentSuite(grid).Run();
  };
  SuiteReport serial = build(1);
  SuiteReport parallel = build(4);
  EXPECT_EQ(serial.ToJson(), parallel.ToJson());
  EXPECT_GT(serial.quarantined_count(), 0u);
}

TEST(SelfHealTest, QuarantineCascadesToDependentReplay) {
  // The poison bug's memoize cell hangs, so its replay's memo DB never gets
  // filled: the replay must be quarantined as a dependency casualty without
  // ever running (attempts stays 0), not run against a half-filled store.
  ExperimentSpec grid;
  grid.bugs = {PoisonSpec("poison")};
  grid.modes = {RunMode::kMemoize, RunMode::kPilReplay};
  grid.scales = {16};
  SuiteReport report = ExperimentSuite(grid).Run();

  const RunRecord* memoize =
      report.Find("poison", RunMode::kMemoize, 16, kDefaultSuiteSeed);
  const RunRecord* replay =
      report.Find("poison", RunMode::kPilReplay, 16, kDefaultSuiteSeed);
  ASSERT_NE(memoize, nullptr);
  ASSERT_NE(replay, nullptr);
  EXPECT_TRUE(memoize->quarantined);
  EXPECT_EQ(memoize->quarantine_reason, "watchdog");
  EXPECT_TRUE(replay->quarantined);
  EXPECT_EQ(replay->quarantine_reason, "dependency-quarantined");
  EXPECT_EQ(replay->attempts, 0);
}

TEST(SelfHealTest, SuiteWideBudgetAppliesWhenSpecHasNoOverride) {
  ExperimentSpec grid;
  grid.bugs = {HealthySpec("h1")};  // no per-spec override
  grid.modes = {RunMode::kColocated};
  grid.scales = {16};
  grid.cell_wall_budget_seconds = 1e-9;  // suite-wide poison budget
  grid.max_cell_attempts = 2;
  SuiteReport report = ExperimentSuite(grid).Run();
  ASSERT_EQ(report.runs().size(), 1u);
  EXPECT_TRUE(report.runs()[0].quarantined);
  EXPECT_EQ(report.runs()[0].attempts, 2);
}

TEST(SelfHealTest, SuccessfulCellsOmitAttemptCounts) {
  // A successful run's attempt count is host-dependent (a transient budget
  // trip retries); it must never reach the serialized record.
  ExperimentSpec grid;
  grid.bugs = {HealthySpec("h1")};
  grid.modes = {RunMode::kColocated};
  grid.scales = {12};
  SuiteReport report = ExperimentSuite(grid).Run();
  ASSERT_EQ(report.runs().size(), 1u);
  EXPECT_FALSE(report.runs()[0].quarantined);
  const std::string json = SuiteReport::RecordJson(report.runs()[0]);
  EXPECT_EQ(json.find("\"attempts\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos) << json;
}

TEST(SelfHealTest, RunSingleSurfacesWatchdogInResultAndVerdict) {
  BugSpec spec = HealthySpec("h1");
  Cluster::Options options = spec.MakeClusterOptions(16, RunMode::kColocated, 7);
  options.wall_budget_seconds = 1e-9;
  RunResult r = Cluster(std::move(options)).Run();
  EXPECT_TRUE(r.watchdog_fired);
  EXPECT_EQ(r.fidelity.verdict, FidelityVerdict::kInvalid);
  EXPECT_EQ(r.fidelity.violated_budget, "watchdog");
}

}  // namespace
}  // namespace scalecheck
