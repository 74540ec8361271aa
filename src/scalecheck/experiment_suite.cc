#include "src/scalecheck/experiment_suite.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace scalecheck {

namespace {

double WallSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// One node of the task DAG: a single (bug, mode, scale, seed) simulation.
struct ExperimentSuite::Task {
  size_t record_index = 0;       // slot in SuiteReport::runs_
  const BugSpec* bug = nullptr;
  RunMode mode = RunMode::kRealScale;
  int nodes = 0;
  uint64_t seed = 0;
  // kMemoize fills, kPilReplay reads; owned by the executor, shared by the
  // memoize task and its dependent replay. The DAG edge (below) makes the
  // accesses strictly sequential, so the store needs no locking.
  MemoStore* store = nullptr;
  std::vector<size_t> dependents;  // task indices unblocked by completion
  int unmet_dependencies = 0;
  // Set (under the executor mutex) when a dependency was quarantined: this
  // task must not run — its input store was never filled — and cascades the
  // quarantine to its own dependents.
  bool dep_quarantined = false;
};

ExperimentSuite::ExperimentSuite(ExperimentSpec spec) : spec_(std::move(spec)) {}

ExperimentSuite::~ExperimentSuite() = default;

SuiteReport ExperimentSuite::Run() {
  CHECK(!ran_) << "ExperimentSuite::Run is one-shot; build a new suite";
  ran_ = true;
  CHECK(!spec_.bugs.empty()) << "ExperimentSpec needs at least one bug";
  CHECK(!spec_.modes.empty()) << "ExperimentSpec needs at least one mode";
  CHECK(!spec_.scales.empty()) << "ExperimentSpec needs at least one scale";
  CHECK(!spec_.seeds.empty()) << "ExperimentSpec needs at least one seed";

  bool wants_memoize = false;
  bool wants_replay = false;
  for (RunMode mode : spec_.modes) {
    wants_memoize = wants_memoize || mode == RunMode::kMemoize;
    wants_replay = wants_replay || mode == RunMode::kPilReplay;
  }

  // ---- Compile the grid into tasks + records (canonical order) --------------
  SuiteReport report;
  std::vector<Task> tasks;
  std::vector<std::unique_ptr<MemoStore>> stores;

  // Grid cells first, in spec order: bug-major, then scale, seed, mode.
  struct CellKey {
    size_t memoize_task = SIZE_MAX;
    size_t replay_task = SIZE_MAX;
    MemoStore* store = nullptr;
  };
  for (const BugSpec& bug : spec_.bugs) {
    for (int n : spec_.scales) {
      for (uint64_t seed : spec_.seeds) {
        CellKey cell;
        if (wants_memoize || wants_replay) {
          stores.push_back(std::make_unique<MemoStore>());
          cell.store = stores.back().get();
        }
        for (RunMode mode : spec_.modes) {
          Task task;
          task.record_index = report.runs_.size();
          task.bug = &bug;
          task.mode = mode;
          task.nodes = n;
          task.seed = seed;
          if (mode == RunMode::kMemoize || mode == RunMode::kPilReplay) {
            task.store = cell.store;
          }
          if (mode == RunMode::kMemoize) {
            cell.memoize_task = tasks.size();
          } else if (mode == RunMode::kPilReplay) {
            cell.replay_task = tasks.size();
          }
          tasks.push_back(std::move(task));

          RunRecord record;
          record.bug_id = bug.id;
          record.mode = mode;
          record.nodes = n;
          record.seed = seed;
          report.runs_.push_back(std::move(record));
        }
        // The DAG edge: replay waits for the memoize run that fills its DB.
        if (cell.replay_task != SIZE_MAX) {
          if (cell.memoize_task == SIZE_MAX) {
            // The grid asked for replay without memoize: insert the implicit
            // dependency run (appended after the grid, still deterministic).
            Task memoize;
            memoize.record_index = report.runs_.size();
            memoize.bug = &bug;
            memoize.mode = RunMode::kMemoize;
            memoize.nodes = n;
            memoize.seed = seed;
            memoize.store = cell.store;
            cell.memoize_task = tasks.size();
            tasks.push_back(std::move(memoize));

            RunRecord record;
            record.bug_id = bug.id;
            record.mode = RunMode::kMemoize;
            record.nodes = n;
            record.seed = seed;
            record.implicit = true;
            report.runs_.push_back(std::move(record));
          }
          tasks[cell.memoize_task].dependents.push_back(cell.replay_task);
          tasks[cell.replay_task].unmet_dependencies += 1;
        }
      }
    }
  }

  // Implicit runs were appended out of canonical position; re-sort records
  // afterwards? Not needed: their position is a deterministic function of the
  // spec alone, so parallel and serial executions agree byte-for-byte.

  // ---- Execute the DAG on the pool ------------------------------------------
  // One synchronized CalcOutputCache shared by every run (host wall-clock
  // only; see CalcOutputCache for why this preserves determinism).
  CalcOutputCache shared_cache;

  ThreadPool pool(spec_.jobs);
  std::mutex mu;
  std::condition_variable done_cv;
  size_t remaining = tasks.size();

  // Scheduling closure: runs one task (with watchdog / bounded retry /
  // quarantine), then unblocks its dependents. Tasks write only their own
  // preallocated record slot, so no result-side locking is needed.
  std::function<void(size_t)> submit = [&](size_t index) {
    pool.Submit([&, index] {
      Task& task = tasks[index];
      RunRecord& record = report.runs_[task.record_index];
      auto start = std::chrono::steady_clock::now();

      if (task.dep_quarantined) {
        // The store this task depends on was never (fully) filled; running
        // would produce a host-dependent half-result. Quarantine instead.
        record.quarantined = true;
        record.quarantine_reason = "dependency-quarantined";
      } else {
        const double budget = task.bug->wall_budget_seconds > 0.0
                                  ? task.bug->wall_budget_seconds
                                  : spec_.cell_wall_budget_seconds;
        const int max_attempts =
            budget > 0.0 ? std::max(1, spec_.max_cell_attempts) : 1;
        // Snapshot the cell's memo store before the first watched attempt: a
        // retry must replay against pristine input state (a partially filled
        // memoize store, or a replay store extended by divergence fallbacks,
        // would otherwise leak across attempts and break byte-identity).
        std::unique_ptr<MemoStore> pristine;
        if (budget > 0.0 && task.store != nullptr) {
          pristine = std::make_unique<MemoStore>(*task.store);
        }
        for (int attempt = 1; attempt <= max_attempts; ++attempt) {
          if (attempt > 1 && pristine != nullptr) {
            *task.store = *pristine;
          }
          Cluster::Options options =
              task.bug->MakeClusterOptions(task.nodes, task.mode, task.seed);
          options.memo_store = task.store;
          options.shared_output_cache = &shared_cache;
          options.wall_budget_seconds = budget;
          record.result = Cluster(std::move(options)).Run();
          record.attempts = attempt;
          if (!record.result.watchdog_fired) {
            break;
          }
        }
        if (record.result.watchdog_fired) {
          record.quarantined = true;
          record.quarantine_reason = "watchdog";
          // A watchdog-truncated run's numbers describe a host-dependent
          // prefix; drop them so they can never be mistaken for results.
          record.result = RunResult();
        }
      }
      record.wall_seconds = WallSecondsSince(start);

      std::vector<size_t> ready;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (size_t dependent : task.dependents) {
          if (record.quarantined) {
            tasks[dependent].dep_quarantined = true;
          }
          if (--tasks[dependent].unmet_dependencies == 0) {
            ready.push_back(dependent);
          }
        }
        if (--remaining == 0) {
          done_cv.notify_all();
        }
      }
      for (size_t r : ready) {
        submit(r);
      }
    });
  };

  {
    // Seed the pool with every dependency-free task, in canonical order.
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].unmet_dependencies == 0) {
        submit(i);
      }
    }
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  pool.WaitIdle();

  return report;
}

// ---- SuiteReport ------------------------------------------------------------

const RunRecord* SuiteReport::Find(const std::string& bug_id, RunMode mode,
                                   int nodes, uint64_t seed) const {
  for (const RunRecord& record : runs_) {
    if (record.bug_id == bug_id && record.mode == mode && record.nodes == nodes &&
        record.seed == seed) {
      return &record;
    }
  }
  return nullptr;
}

const RunResult& SuiteReport::Get(const std::string& bug_id, RunMode mode,
                                  int nodes, uint64_t seed) const {
  const RunRecord* record = Find(bug_id, mode, nodes, seed);
  CHECK(record != nullptr) << "suite has no run for " << bug_id << "/"
                           << RunModeName(mode) << "/n=" << nodes;
  return record->result;
}

ScaleCheckResult SuiteReport::Assemble(const std::string& bug_id, int nodes,
                                       uint64_t seed) const {
  ScaleCheckResult result;
  result.real = Get(bug_id, RunMode::kRealScale, nodes, seed);
  result.colo = Get(bug_id, RunMode::kColocated, nodes, seed);
  result.memoize = Get(bug_id, RunMode::kMemoize, nodes, seed);
  result.replay = Get(bug_id, RunMode::kPilReplay, nodes, seed);
  // The replay run observed the store after memoize + its own lookups.
  result.memo = result.replay.memo;
  result.replay_flap_error = RelativeFlapError(result.replay.flaps, result.real.flaps);
  result.colo_flap_error = RelativeFlapError(result.colo.flaps, result.real.flaps);
  return result;
}

ScaleCheckResult RunComparison(const BugSpec& bug, int nodes, uint64_t seed,
                               int jobs) {
  ExperimentSpec grid;
  grid.bugs = {bug};
  grid.modes = {RunMode::kRealScale, RunMode::kColocated, RunMode::kMemoize,
                RunMode::kPilReplay};
  grid.scales = {nodes};
  grid.seeds = {seed};
  grid.jobs = jobs;
  return ExperimentSuite(std::move(grid)).Run().Assemble(bug.id, nodes, seed);
}

double SuiteReport::total_run_wall_seconds() const {
  double total = 0.0;
  for (const RunRecord& record : runs_) {
    total += record.wall_seconds;
  }
  return total;
}

namespace {

// Shared by ToJson (inside the runs array) and RecordJson (standalone): a
// JSON object's bytes do not depend on nesting, so the two agree.
void WriteRecordJson(JsonWriter* w, const RunRecord& record) {
  w->BeginObject();
  w->Field("bug", record.bug_id);
  w->Field("mode", RunModeName(record.mode));
  w->Field("nodes", record.nodes);
  w->Field("seed", record.seed);
  w->Field("implicit", record.implicit);
  w->Field("status", record.quarantined ? "quarantined" : "ok");
  if (record.quarantined) {
    // No result object: a quarantined cell has only host-dependent partial
    // state. attempts is deterministic for deterministic-poison cells (it is
    // always max_cell_attempts) and meaningful diagnostics otherwise.
    w->Field("quarantine_reason", record.quarantine_reason);
    w->Field("attempts", record.attempts);
  } else {
    w->Key("result");
    record.result.WriteJson(w);
  }
  w->EndObject();
}

}  // namespace

std::string SuiteReport::RecordJson(const RunRecord& record) {
  JsonWriter w;
  WriteRecordJson(&w, record);
  return w.str();
}

size_t SuiteReport::quarantined_count() const {
  size_t count = 0;
  for (const RunRecord& record : runs_) {
    count += record.quarantined ? 1 : 0;
  }
  return count;
}

std::string SuiteReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("runs").BeginArray();
  for (const RunRecord& record : runs_) {
    WriteRecordJson(&w, record);
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace scalecheck
