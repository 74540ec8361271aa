// ChaosSearch end to end: the seed-deterministic searcher finds the planted
// left-join bug, the ddmin minimizer shrinks the violating plan to a locally
// minimal reproducer, and the repro artifact replays to the byte-identical
// invariant report — at any --jobs setting.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/faults/fault_search.h"
#include "src/scalecheck/bug_catalog.h"

namespace scalecheck {
namespace {

FaultSearchConfig SmokeConfig() {
  FaultSearchConfig config;
  config.spec = BugCatalog::Get("C3831");
  config.spec.calc_version = CalcVersion::kV3C3881Fix;
  config.spec.check.plant_left_join_bug = true;
  config.nodes = 12;
  config.budget = 8;
  config.generation_size = 8;
  return config;
}

// The search is expensive enough to run once and interrogate from several
// tests; determinism (proved separately below) makes the sharing sound.
const FaultSearchReport& SharedReport() {
  static const FaultSearchReport* report = [] {
    FaultSearchConfig config = SmokeConfig();
    config.jobs = 1;
    return new FaultSearchReport(FaultSearch(config).Run());
  }();
  return *report;
}

bool PlanViolates(const FaultSearchConfig& config, const FaultPlan& plan,
                  const std::vector<std::string>& expected) {
  BugSpec spec = config.spec;
  spec.fault_plan = "none";
  spec.custom_faults = plan;
  RunResult result = RunSingle(spec, config.nodes, config.mode, config.seed);
  std::vector<std::string> names = result.invariants.ViolatedNames();
  std::set<std::string> got(names.begin(), names.end());
  for (const std::string& name : expected) {
    if (got.count(name) == 0) return false;
  }
  return true;
}

TEST(RunExitCodeTest, DistinguishesViolationFromFidelity) {
  RunResult clean;
  EXPECT_EQ(RunExitCode(clean), 0);

  RunResult invalid;
  invalid.fidelity.verdict = FidelityVerdict::kInvalid;
  EXPECT_EQ(RunExitCode(invalid), 3);

  RunResult violated;
  violated.invariants.checked = true;
  violated.invariants.violations.push_back(
      {"zombie-endpoint", VirtualTime(), "detail", 1});
  EXPECT_EQ(RunExitCode(violated), 4);

  // A broken cluster outranks a distrusted measurement of it.
  RunResult both = violated;
  both.fidelity.verdict = FidelityVerdict::kInvalid;
  EXPECT_EQ(RunExitCode(both), 4);

  // Unchecked violations do not exist; the disabled checker never exits 4.
  RunResult unchecked;
  unchecked.invariants.checked = false;
  EXPECT_EQ(RunExitCode(unchecked), 0);
}

TEST(FaultSearchTest, FindsThePlantedViolationDeterministically) {
  const FaultSearchReport& report = SharedReport();
  ASSERT_TRUE(report.found_violation);
  EXPECT_GE(report.violating_index, 0);
  ASSERT_EQ(report.violated.size(), 1u);
  EXPECT_EQ(report.violated[0], "zombie-endpoint");
  EXPECT_FALSE(report.violating_plan.events.empty());
  EXPECT_FALSE(report.candidates.empty());
  EXPECT_GE(report.best_index, 0);
  EXPECT_FALSE(report.repro_json.empty());
}

TEST(FaultSearchTest, JobsNeverChangeAByte) {
  FaultSearchConfig config = SmokeConfig();
  config.jobs = 4;
  FaultSearchReport parallel = FaultSearch(config).Run();
  EXPECT_EQ(parallel.ToJson(), SharedReport().ToJson());
}

TEST(FaultSearchTest, MinimizedPlanIsLocallyMinimal) {
  const FaultSearchReport& report = SharedReport();
  ASSERT_TRUE(report.found_violation);
  const FaultPlan& minimized = report.minimized_plan;
  ASSERT_FALSE(minimized.events.empty());
  EXPECT_LE(minimized.events.size(), report.violating_plan.events.size());
  EXPECT_GT(report.minimize_runs, 0);

  FaultSearchConfig config = SmokeConfig();
  // The minimized plan still reproduces the violation...
  EXPECT_TRUE(PlanViolates(config, minimized, report.violated));
  // ...and removing any single remaining event loses it (ddmin's 1-minimal
  // guarantee).
  for (size_t skip = 0; skip < minimized.events.size(); ++skip) {
    FaultPlan smaller;
    smaller.name = minimized.name;
    for (size_t i = 0; i < minimized.events.size(); ++i) {
      if (i != skip) smaller.events.push_back(minimized.events[i]);
    }
    EXPECT_FALSE(PlanViolates(config, smaller, report.violated))
        << "event " << skip << " is redundant";
  }
}

TEST(FaultSearchTest, ReproArtifactReplaysByteIdentically) {
  const FaultSearchReport& report = SharedReport();
  ASSERT_FALSE(report.repro_json.empty());
  Result<ReproReplay> replay = ReplayRepro(report.repro_json);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.value().bug_id, "C3831");
  EXPECT_TRUE(replay.value().invariants_match);
  EXPECT_EQ(replay.value().expected_violated, report.violated);
  EXPECT_EQ(replay.value().result.invariants.ViolatedNames(), report.violated);
  EXPECT_EQ(RunExitCode(replay.value().result), 4);

  // Replaying twice is byte-identical (the artifact pins everything).
  Result<ReproReplay> again = ReplayRepro(report.repro_json);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().result.ToJson(), replay.value().result.ToJson());
}

TEST(FaultSearchTest, CorruptArtifactsAreRejectedNotGuessed) {
  const std::string good = SharedReport().repro_json;
  ASSERT_TRUE(ReplayRepro(good).ok());

  auto replace = [&good](const std::string& from, const std::string& to) {
    std::string s = good;
    auto pos = s.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    s.replace(pos, from.size(), to);
    return s;
  };

  // Future format: refuse rather than misinterpret.
  EXPECT_FALSE(
      ReplayRepro(replace("scalecheck-repro-v1", "scalecheck-repro-v2")).ok());
  // Unknown scenario id.
  EXPECT_FALSE(ReplayRepro(replace("\"bug\":\"C3831\"", "\"bug\":\"C9999\"")).ok());
  // Unknown key anywhere in the artifact.
  EXPECT_FALSE(
      ReplayRepro(replace("\"nodes\":", "\"extra\":0,\"nodes\":")).ok());
  // Missing key.
  {
    std::string s = good;
    auto pos = s.find("\"seed\":");
    ASSERT_NE(pos, std::string::npos);
    auto end = s.find(',', pos);
    s.erase(pos, end - pos + 1);
    EXPECT_FALSE(ReplayRepro(s).ok());
  }
  // Truncation.
  EXPECT_FALSE(ReplayRepro(good.substr(0, good.size() / 2)).ok());
  EXPECT_FALSE(ReplayRepro("").ok());
}

TEST(FaultSearchTest, NoViolationWithoutThePlantedBug) {
  // The same schedule space against the *correct* recovery path: the search
  // exhausts its budget without a violation and reports so.
  FaultSearchConfig config = SmokeConfig();
  config.spec.check.plant_left_join_bug = false;
  config.budget = 4;
  config.generation_size = 4;
  FaultSearchReport report = FaultSearch(config).Run();
  EXPECT_FALSE(report.found_violation);
  EXPECT_EQ(report.violating_index, -1);
  EXPECT_TRUE(report.repro_json.empty());
  EXPECT_EQ(static_cast<int>(report.candidates.size()), 4);
}

}  // namespace
}  // namespace scalecheck
