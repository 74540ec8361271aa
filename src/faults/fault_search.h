// ChaosSearch: invariant-driven exploration of the fault-plan space.
//
// The studied scalability bugs hide behind *specific* adverse schedules: a
// crash inside a decommission window, a partition that heals mid-recalc. A
// hand-written StandardChaos plan exercises one such schedule; ChaosSearch
// explores many. The searcher generates seed-deterministic candidate
// FaultPlans (random schedules, then mutations of the best scorer), runs each
// candidate through the ExperimentSuite executor (host-parallel, yet
// byte-deterministic — candidate generation depends only on the search Rng
// and on suite results, never on host completion order), and scores each run
// by the invariants it violated plus how far its flap count diverged from a
// no-fault baseline.
//
// A violating candidate is then shrunk by a ddmin-style minimizer to a
// locally minimal reproducer — removing any single remaining event no longer
// reproduces the violation — and packaged as a self-contained repro artifact:
// one JSON document holding the scenario, scale, mode, seed and FaultPlan.
// `scalecheck_cli --repro=FILE` re-executes the artifact and must reach the
// byte-identical InvariantReport (strict round-trip per fault_plan.h).

#ifndef SCALECHECK_SRC_FAULTS_FAULT_SEARCH_H_
#define SCALECHECK_SRC_FAULTS_FAULT_SEARCH_H_

#include <string>
#include <vector>

#include "src/faults/fault_plan.h"
#include "src/scalecheck/scale_check.h"

namespace scalecheck {

// The smallest cluster ChaosSearch explores and a repro artifact replays:
// fault victims spare the seed/contact nodes 0..2 and the workload's
// membership target n/2.
inline constexpr int kMinFaultSearchNodes = 5;

struct FaultSearchConfig {
  // Base scenario; candidates clone it with spec.custom_faults replaced.
  // The searcher clears spec.fault_plan so only the candidate plan runs.
  BugSpec spec;
  int nodes = 16;
  RunMode mode = RunMode::kColocated;
  // Simulation seed — identical for every candidate, so score differences
  // come from the fault schedule alone.
  uint64_t seed = 0x5ca1ec4ecULL;
  // Drives candidate generation and mutation only.
  uint64_t search_seed = 0xc4a05ULL;
  // Total candidate plans to evaluate.
  int budget = 32;
  // Candidates evaluated per suite batch (one host-parallel generation).
  int generation_size = 8;
  // Max events per generated plan (mutation may not grow beyond this).
  int max_events = 5;
  // Host workers for each generation's ExperimentSuite (wall-clock only).
  int jobs = 1;
  // Stop exploring at the end of the first generation with a violation.
  bool stop_on_first_violation = true;
  // Shrink the first violating plan to a minimal reproducer.
  bool minimize = true;
};

struct FaultCandidate {
  int index = 0;  // generation order, the candidate's identity
  FaultPlan plan;
  double score = 0.0;
  int64_t flaps = 0;
  std::vector<std::string> violated;  // invariant names, sorted

  bool violating() const { return !violated.empty(); }
};

struct FaultSearchReport {
  int64_t baseline_flaps = 0;  // no-fault run of the same (spec, n, mode, seed)
  std::vector<FaultCandidate> candidates;  // in generation order
  int best_index = -1;  // highest score (ties: lowest index)
  bool found_violation = false;
  // First violating candidate (lowest index) and its violations.
  int violating_index = -1;
  FaultPlan violating_plan;
  std::vector<std::string> violated;
  // Minimizer output (== violating_plan when minimize is off).
  FaultPlan minimized_plan;
  int minimize_runs = 0;
  // Self-contained repro artifact for the minimized plan ("" if no
  // violation was found).
  std::string repro_json;

  std::string ToJson() const;
};

class FaultSearch {
 public:
  explicit FaultSearch(FaultSearchConfig config);

  // Runs the whole search (plus minimization). Deterministic in
  // (config minus jobs): any --jobs produces byte-identical ToJson output.
  FaultSearchReport Run();

 private:
  FaultSearchConfig config_;
};

// ddmin-style shrinker: returns a subset of plan.events that still violates
// every invariant in `expected` (names as reported in InvariantReport) and is
// locally minimal — removing any single remaining event loses the violation.
// `runs` counts the simulations spent shrinking.
struct MinimizeResult {
  FaultPlan plan;
  int runs = 0;
};
MinimizeResult MinimizeFaultPlan(const BugSpec& spec, int nodes, RunMode mode,
                                 uint64_t seed, const FaultPlan& plan,
                                 const std::vector<std::string>& expected);

// The self-contained repro artifact (see file comment). `spec` must carry the
// catalog id the replaying binary will resolve; every knob the artifact pins
// (a row of src/scalecheck/knob_table.h with an artifact key) is embedded.
std::string MakeReproArtifact(const BugSpec& spec, int nodes, RunMode mode,
                              uint64_t seed, const FaultPlan& plan,
                              const RunResult& result);

struct ReproReplay {
  std::string bug_id;
  RunResult result;
  std::vector<std::string> expected_violated;
  // The replayed InvariantReport serialized byte-identically to the
  // artifact's recorded report.
  bool invariants_match = false;
};

// Parses and re-executes an artifact produced by MakeReproArtifact. Strict:
// an unknown format or key, a missing key, a value of the wrong type or out
// of its row's range, or a malformed plan is an error, not a guess; so is a
// KV key that would act on nothing (CheckArtifactKnobs, kFailedPrecondition).
Result<ReproReplay> ReplayRepro(const std::string& artifact_json);

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_FAULTS_FAULT_SEARCH_H_
