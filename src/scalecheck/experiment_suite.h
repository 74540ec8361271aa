// ExperimentSuite: a declarative grid of scale-check experiments with a
// host-parallel, determinism-preserving executor.
//
// Every figure/table in DESIGN.md §4 is a grid of independent deterministic
// simulations — (bug x RunMode x scale x seed). An ExperimentSpec declares
// that grid once; the suite compiles it into a dependency-aware task DAG
// (each kPilReplay run depends on the memoization run that fills its
// MemoStore; everything else is independent) and executes it on a ThreadPool
// with `jobs` workers.
//
// Determinism is non-negotiable: each task owns its own single-threaded
// Simulator, the shared CalcOutputCache is internally synchronized and
// value-transparent, and results land in grid order (insertion-order
// independent), so SuiteReport::ToJson() with jobs=N is byte-identical to
// jobs=1. Host parallelism never touches virtual time — it only decides how
// many simulations advance their own clocks at once. Host wall-clock is
// reported per run for operators but deliberately excluded from the JSON.

#ifndef SCALECHECK_SRC_SCALECHECK_EXPERIMENT_SUITE_H_
#define SCALECHECK_SRC_SCALECHECK_EXPERIMENT_SUITE_H_

#include <string>
#include <vector>

#include "src/scalecheck/scale_check.h"

namespace scalecheck {

inline constexpr uint64_t kDefaultSuiteSeed = 0x5ca1ec4ecULL;

// The declarative grid: every (bug, mode, scale, seed) combination runs once.
struct ExperimentSpec {
  std::vector<BugSpec> bugs;
  std::vector<RunMode> modes;
  std::vector<int> scales;
  std::vector<uint64_t> seeds = {kDefaultSuiteSeed};

  // Host worker threads; <= 0 selects the hardware concurrency. This knob
  // changes wall-clock only, never results.
  int jobs = 1;

  // ---- Self-healing execution ----------------------------------------------
  // Host wall-clock budget per cell (0 disables the watchdog). A per-bug
  // BugSpec::wall_budget_seconds > 0 overrides this for that bug's cells. A
  // cell that exceeds its budget is abandoned and retried from scratch — the
  // retry reconstructs simulator, RNG streams and memo state purely from the
  // cell's seed, so a successful retry is byte-identical to a run that never
  // tripped. After max_cell_attempts the cell is quarantined: the sweep
  // completes, the record carries status "quarantined" + the reason, and no
  // partial (host-dependent) result is ever serialized.
  double cell_wall_budget_seconds = 0.0;
  int max_cell_attempts = 2;
};

// One executed grid cell.
struct RunRecord {
  std::string bug_id;
  RunMode mode = RunMode::kRealScale;
  int nodes = 0;
  uint64_t seed = 0;
  // True for memoization runs the suite inserted itself because the grid
  // asked for kPilReplay without kMemoize (the replay's DB dependency).
  bool implicit = false;
  RunResult result;
  // Host wall-clock of this run (reporting only; not serialized).
  double wall_seconds = 0.0;
  // ---- Self-healing status -------------------------------------------------
  // Attempts actually executed (0 for cells quarantined before running).
  // Serialized only for quarantined cells: a successful retry count is
  // host-dependent and must not perturb the byte-identity of good cells.
  int attempts = 0;
  bool quarantined = false;
  std::string quarantine_reason;  // "watchdog" or "dependency-quarantined"
};

class SuiteReport {
 public:
  // All records in canonical grid order (bug-major, then scale, seed, mode;
  // implicit dependency runs appended after the grid) — independent of the
  // order tasks happened to finish in.
  const std::vector<RunRecord>& runs() const { return runs_; }

  // Returns the record for one grid cell, or nullptr if it was not part of
  // the spec (implicit runs are found too).
  const RunRecord* Find(const std::string& bug_id, RunMode mode, int nodes,
                        uint64_t seed) const;
  // As Find, but CHECK-fails when missing.
  const RunResult& Get(const std::string& bug_id, RunMode mode, int nodes,
                       uint64_t seed) const;

  // Assembles the Figure-3 style four-mode comparison for one (bug, scale,
  // seed) cell. Requires all four modes in the grid (memoize may be
  // implicit).
  ScaleCheckResult Assemble(const std::string& bug_id, int nodes,
                            uint64_t seed) const;

  // Total host wall-clock spent inside runs (sum over tasks; with jobs > 1
  // this exceeds the suite's elapsed time — that gap is the speedup).
  double total_run_wall_seconds() const;

  // Stable machine-readable export: byte-identical for a fixed spec grid no
  // matter how many host threads executed it. Quarantined cells serialize
  // status + reason + attempts and omit the result object entirely, so the
  // surviving cells' bytes match a sweep that never contained the bad cell.
  std::string ToJson() const;

  // One record as a standalone JSON object — the exact bytes ToJson() emits
  // for it inside the runs array (tests compare surviving cells with this).
  static std::string RecordJson(const RunRecord& record);

  size_t quarantined_count() const;

 private:
  friend class ExperimentSuite;
  std::vector<RunRecord> runs_;
};

class ExperimentSuite {
 public:
  explicit ExperimentSuite(ExperimentSpec spec);
  ~ExperimentSuite();
  ExperimentSuite(const ExperimentSuite&) = delete;
  ExperimentSuite& operator=(const ExperimentSuite&) = delete;

  const ExperimentSpec& spec() const { return spec_; }

  // Executes the whole grid and returns the report. Call once.
  SuiteReport Run();

 private:
  struct Task;

  ExperimentSpec spec_;
  bool ran_ = false;
};

// The Figure-3 comparison (Real / Colo / Memoize / SC+PIL replay) of one bug
// at one scale and seed: a four-mode grid, run and assembled.
ScaleCheckResult RunComparison(const BugSpec& bug, int nodes,
                               uint64_t seed = kDefaultSuiteSeed, int jobs = 1);

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SCALECHECK_EXPERIMENT_SUITE_H_
