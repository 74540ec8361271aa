#include "src/scalecheck/experiment_table.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/strings.h"
#include "src/dfs/dfs.h"
#include "src/ring/calculators.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/sfind/finder.h"
#include "src/sfind/fitter.h"
#include "src/sim/machine.h"
#include "src/study/bug_database.h"

namespace scalecheck {
namespace {

using Rows = std::vector<std::vector<std::string>>;

const std::vector<RunMode> kFigure3Modes = {RunMode::kRealScale, RunMode::kColocated,
                                            RunMode::kMemoize, RunMode::kPilReplay};

// An integer cell.
template <typename T>
std::string Count(T n) {
  return std::to_string(n);
}

std::string Percent(double fraction) { return StrFormat("%.0f%%", fraction * 100.0); }

// PIL replay hits over all memo lookups of a replay run.
double HitRate(const RunResult& replay) {
  const double lookups =
      static_cast<double>(replay.pil.replay_hits + replay.pil.replay_misses);
  return lookups == 0 ? 0.0 : static_cast<double>(replay.pil.replay_hits) / lookups;
}

// The q-th quantile of `values` (0 <= q <= 1), interpolating linearly
// between order statistics.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// A relative error over seeds as "median [q1–q3]", in percent.
std::string ErrorSpread(const std::vector<double>& errors) {
  return StrFormat("%.0f%% [%.0f–%.0f%%]", Quantile(errors, 0.5) * 100.0,
                   Quantile(errors, 0.25) * 100.0, Quantile(errors, 0.75) * 100.0);
}

// ---- Figure 1 ---------------------------------------------------------------
// Completion time of N bursts of `work` units on `machines_count` one-core
// machines; `as_sleep` replaces each burst with a sleep of its duration.
VirtualDuration RunBatch(int n, WorkUnits work, int machines_count, bool as_sleep) {
  Simulator sim(1);
  MachineSpec spec;
  spec.cores = 1.0;
  spec.ctx_switch_penalty = 0.0;
  MachineSet machines(&sim, spec, machines_count);
  int done = 0;
  for (int i = 0; i < n; ++i) {
    Machine* m = machines.Place(i, (n + machines_count - 1) / machines_count);
    if (as_sleep) {
      sim.ScheduleAfter(
          VirtualDuration::FromSecondsF(static_cast<double>(work) / spec.core_speed),
          [&done] { ++done; });
    } else {
      m->cpu().StartTask(work, [&done] { ++done; });
    }
  }
  sim.RunUntilIdle();
  return sim.Now() - VirtualTime::Zero();
}

// A batch of N 2-second bursts under real scale (N machines), basic
// colocation (one machine) and PIL replay (one machine, bursts as sleeps),
// plus the wall a DieCast-style time dilation of TDF=N pays per iteration.
Result<std::string> Figure1(const ExperimentRow& row, const SuiteReport&, std::string*) {
  const WorkUnits kWork = 2'000'000'000;  // t = 2s on one core
  const double kT = 2.0;
  Rows rows;
  for (int n : row.grid.scales) {
    VirtualDuration real = RunBatch(n, kWork, n, false);
    VirtualDuration colo = RunBatch(n, kWork, 1, false);
    VirtualDuration pil = RunBatch(n, kWork, 1, true);
    rows.push_back({
        Count(n),
        real.ToString(),
        StrFormat("%s (%.1fx t)", colo.ToString().c_str(), colo.seconds() / kT),
        StrFormat("%s (t+e)", pil.ToString().c_str()),
        StrFormat("%.0fs", kT * n),
    });
  }
  return RenderTable({"N", "Real (N machines)", "Basic colo (1 machine)", "PIL replay",
                      "DieCast wall (TDF=N)"},
                     rows);
}

// ---- Figure 3 ---------------------------------------------------------------
// Per N: median flaps over the seeds for Real / Colo / SC+PIL, and the
// relative flap errors of SC+PIL and Colo against Real as median [q1–q3].
// Each N's host run wall goes to the log.
Result<std::string> Figure3(const ExperimentRow& row, const SuiteReport& report,
                            std::string* log) {
  const BugSpec& spec = row.grid.bugs.front();
  Rows rows;
  for (int n : row.grid.scales) {
    std::vector<double> real, colo, replay, pil_err, colo_err;
    double wall = 0.0;
    for (uint64_t seed : row.grid.seeds) {
      ScaleCheckResult r = report.Assemble(spec.id, n, seed);
      real.push_back(static_cast<double>(r.real.flaps));
      colo.push_back(static_cast<double>(r.colo.flaps));
      replay.push_back(static_cast<double>(r.replay.flaps));
      pil_err.push_back(r.replay_flap_error);
      colo_err.push_back(r.colo_flap_error);
      for (RunMode mode : row.grid.modes) {
        wall += report.Find(spec.id, mode, n, seed)->wall_seconds;
      }
    }
    rows.push_back({Count(n), StrFormat("%.0f", Quantile(real, 0.5)),
                    StrFormat("%.0f", Quantile(colo, 0.5)),
                    StrFormat("%.0f", Quantile(replay, 0.5)), ErrorSpread(pil_err),
                    ErrorSpread(colo_err)});
    *log += StrFormat("%s n=%d: %.1fs of runs\n", row.name, n, wall);
  }
  return StrFormat("%s: calculator=%s placement=%s vnodes=%d workload=%s. Flaps are the "
                   "median over seeds; errors against Real are median [q1–q3].\n\n",
                   spec.id.c_str(), CalcVersionName(spec.calc_version),
                   CalcPlacementName(spec.placement), spec.vnodes_per_node,
                   WorkloadKindName(spec.workload)) +
         RenderTable({"#Nodes", "Real", "Colo", "SC+PIL", "PIL err", "Colo err"}, rows);
}

// ---- §8 memoization vs replay ------------------------------------------------
Result<std::string> MemoReplay(const ExperimentRow& row, const SuiteReport& report,
                               std::string*) {
  const int n = row.grid.scales.front();
  const uint64_t seed = row.grid.seeds.front();
  Rows rows;
  for (const BugSpec& spec : row.grid.bugs) {
    const RunResult& real = report.Get(spec.id, RunMode::kRealScale, n, seed);
    const RunResult& memoize = report.Get(spec.id, RunMode::kMemoize, n, seed);
    const RunResult& replay = report.Get(spec.id, RunMode::kPilReplay, n, seed);
    rows.push_back({
        spec.id,
        memoize.test_duration.ToString(),
        replay.test_duration.ToString(),
        real.test_duration.ToString(),
        StrFormat("%.2f", replay.test_duration.seconds() /
                              std::max(1.0, real.test_duration.seconds())),
        StrFormat("%.2f", memoize.test_duration.seconds() /
                              std::max(1.0, replay.test_duration.seconds())),
        Count(replay.memo.records) + " rec",
        Percent(HitRate(replay)),
    });
  }
  return RenderTable({"bug", "memoize", "replay", "real", "replay/real", "memo/replay",
                      "memo DB", "hit rate"},
                     rows);
}

// ---- §8 colocation limit -----------------------------------------------------
// The FidelityGuard's verdict for one probe, with the budget it names.
std::string Verdict(const RunResult& r) {
  const FidelityReport& fidelity = r.fidelity;
  std::string verdict = "OK";
  if (fidelity.verdict != FidelityVerdict::kOk) {
    verdict = StrFormat("%s:%s", FidelityVerdictName(fidelity.verdict),
                        fidelity.violated_budget.c_str());
    if (r.oom) {
      verdict += StrFormat(" (%d crashed)", r.crashed_nodes);
    }
  }
  return StrFormat("%s [cpu %.0f%%, p99 %s]", verdict.c_str(), r.max_cpu_utilization * 100,
                   r.lateness_p99.ToString().c_str());
}

// Every (budget, severity) first crossing of one run, in detection order.
std::string Crossings(const FidelityReport& fidelity) {
  std::vector<std::string> crossings;
  for (const FidelityViolation& v : fidelity.violations) {
    crossings.push_back(StrFormat("%s:%s@%s", v.budget.c_str(), FidelityVerdictName(v.severity),
                                  (v.first_at - VirtualTime::Zero()).ToString().c_str()));
  }
  return crossings.empty() ? "-" : Join(crossings, ", ");
}

Result<std::string> ColocationLimit(const ExperimentRow& row, const SuiteReport& report,
                                    std::string*) {
  const uint64_t seed = row.grid.seeds.front();
  Rows verdicts;
  Rows seda;
  for (int n : row.grid.scales) {
    std::vector<std::string> cells = {Count(n)};
    for (const BugSpec& spec : row.grid.bugs) {
      cells.push_back(Verdict(report.Get(spec.id, RunMode::kColocated, n, seed)));
    }
    verdicts.push_back(std::move(cells));
    seda.push_back({Count(n),
                    Crossings(report.Get("probe-seda", RunMode::kColocated, n, seed).fidelity)});
  }
  return RenderTable({"N", "process/node", "SEDA redesign", "SEDA + space-oblivious"},
                     verdicts) +
         "\nSEDA redesign, first crossing of each fidelity budget (virtual time):\n\n" +
         RenderTable({"N", "budget:severity@t"}, seda);
}

// ---- §2–§4 bug study ----------------------------------------------------------
Result<std::string> BugStudy(const ExperimentRow&, const SuiteReport&, std::string*) {
  Rows systems;
  for (StudySystem system :
       {StudySystem::kCassandra, StudySystem::kCouchbase, StudySystem::kHadoop,
        StudySystem::kHBase, StudySystem::kHdfs, StudySystem::kRiak, StudySystem::kVoldemort}) {
    std::vector<StudyBug> bugs = BugDatabase::BySystem(system);
    const auto cpu = std::count_if(bugs.begin(), bugs.end(), [](const StudyBug& bug) {
      return bug.root_cause == RootCauseClass::kScaleDependentComputation;
    });
    systems.push_back({StudySystemName(system), Count(bugs.size()),
                       Count(cpu), Count(static_cast<int64_t>(bugs.size()) - cpu)});
  }
  Rows protocols;
  for (ProtocolPath p : {ProtocolPath::kBootstrap, ProtocolPath::kScaleOut,
                         ProtocolPath::kDecommission, ProtocolPath::kRebalance,
                         ProtocolPath::kFailover, ProtocolPath::kDataPath}) {
    protocols.push_back(
        {ProtocolPathName(p), Count(BugDatabase::ByProtocol(p).size())});
  }
  const double cpu = BugDatabase::CpuComputationFraction();
  Rows totals = {
      {"bugs", Count(BugDatabase::All().size())},
      {"scale-dependent CPU computation", Percent(cpu)},
      {"unexpected O(N) serialization", Percent(1.0 - cpu)},
      {"average time-to-fix", StrFormat("%.1f months", BugDatabase::AverageFixMonths())},
      {"maximum time-to-fix", StrFormat("%d months", BugDatabase::MaxFixMonths())},
      {"symptoms needing >100 nodes", Percent(BugDatabase::FractionRequiringScale(100))},
  };
  return RenderTable({"system", "bugs", "CPU-class", "serialization"}, systems) + "\n" +
         RenderTable({"protocol", "bugs"}, protocols) + "\n" +
         RenderTable({"statistic", "value"}, totals);
}

// ---- §3 offending-function durations -------------------------------------------
// One invocation's modelled duration on a dedicated core over a ring of n
// nodes with p tokens each and `changes` pending changes.
VirtualDuration DurationAt(const PendingRangeCalculator& calc, int n, int p, int changes,
                           bool leaving) {
  TokenRing ring;
  for (NodeId id = 0; id < n; ++id) {
    ring.AddNode(id, GenerateTokens(id, p, 77));
  }
  CalcInput input;
  input.ring = &ring;
  input.rf = 3;
  for (int c = 0; c < changes; ++c) {
    if (leaving) {
      input.changes.push_back(PendingChange{c, ChangeKind::kLeaving, {}});
    } else {
      NodeId id = n + c;
      input.changes.push_back(PendingChange{id, ChangeKind::kJoining, GenerateTokens(id, p, 77)});
    }
  }
  return VirtualDuration::FromSecondsF(static_cast<double>(calc.ModelWork(input)) / 1e9);
}

// Every calculator generation at its Figure 3 configuration: V1 with one
// leaving node, the others with a +25% scale-out.
Result<std::string> CalcDurations(const ExperimentRow&, const SuiteReport&, std::string*) {
  const std::vector<int> kRingSizes = {32, 64, 128, 256};
  std::vector<std::string> header = {"calculator", "P"};
  for (int n : kRingSizes) {
    header.push_back(StrFormat("N=%d", n));
  }
  Rows rows;
  for (const auto& [version, p] :
       std::vector<std::pair<CalcVersion, int>>{{CalcVersion::kV1PreC3831, 1},
                                                {CalcVersion::kV2C3831Fix, 1},
                                                {CalcVersion::kV2C3831Fix, 8},
                                                {CalcVersion::kV3C3881Fix, 16},
                                                {CalcVersion::kBootstrapC6127, 16},
                                                {CalcVersion::kReference, 16}}) {
    auto calc = MakeCalculator(version);
    std::vector<std::string> row = {calc->name(), Count(p)};
    const bool leaving = version == CalcVersion::kV1PreC3831;
    for (int n : kRingSizes) {
      row.push_back(DurationAt(*calc, n, p, leaving ? 1 : std::max(1, n / 4), leaving).ToString());
    }
    rows.push_back(std::move(row));
  }
  return RenderTable(header, rows);
}

// ---- Figure 2(b) sfind report ---------------------------------------------------
Result<std::string> SfindReport(const ExperimentRow& row, const SuiteReport&, std::string*) {
  SfindOptions options;
  options.calc_version = CalcVersion::kV1PreC3831;
  options.vnodes_per_node = 1;
  options.scales = row.grid.scales;
  options.target_scale = 256;
  OffendingFunctionFinder finder(options);
  return OffendingFunctionFinder::RenderReport(finder.Run(), options.target_scale);
}

// ---- §4 extrapolation ----------------------------------------------------------
// Fits the flap count and the longest calculation over every scale but the
// last (the training runs) and extrapolates both to the last (the truth).
Result<std::string> Extrapolation(const ExperimentRow& row, const SuiteReport& report,
                                  std::string*) {
  const std::string& id = row.grid.bugs.front().id;
  const uint64_t seed = row.grid.seeds.front();
  const int target = row.grid.scales.back();
  std::vector<std::pair<double, double>> flap_points;
  std::vector<std::pair<double, double>> duration_points;
  Rows training;
  for (int n : row.grid.scales) {
    if (n == target) {
      continue;
    }
    const RunResult& r = report.Get(id, RunMode::kRealScale, n, seed);
    training.push_back({Count(n), Count(r.flaps),
                        StrFormat("%.4fs", r.calc_duration_seconds.max())});
    flap_points.emplace_back(n, static_cast<double>(r.flaps));
    duration_points.emplace_back(n, r.calc_duration_seconds.max());
  }
  const ComplexityFit flap_fit = FitPowerLaw(flap_points);
  const ComplexityFit duration_fit = FitPowerLaw(duration_points);
  const bool flap_signal = flap_fit.num_points >= 2;
  const RunResult& truth = report.Get(id, RunMode::kRealScale, target, seed);
  const std::string at = StrFormat("N=%d", target);
  Rows extrapolated = {
      {"flaps", flap_signal ? flap_fit.Describe() : "no usable signal (all zero)",
       StrFormat("%.1f", flap_signal ? PredictOps(flap_fit, target) : 0.0), Count(truth.flaps)},
      {"calc max", duration_fit.Describe(),
       StrFormat("%.2fs", PredictOps(duration_fit, target)),
       StrFormat("%.2fs", truth.calc_duration_seconds.max())},
      {"stage tasks shed", "-", "-",
       Count(truth.stage_tasks_dropped)},
  };
  return RenderTable({"N", "flaps", "calc max"}, training) + "\n" +
         RenderTable({"signal", "training fit", "predicted at " + at, "measured at " + at},
                     extrapolated);
}

// ---- §2 ablations ----------------------------------------------------------------
Result<std::string> AblationFixes(const ExperimentRow& row, const SuiteReport& report,
                                  std::string*) {
  const int n = row.grid.scales.front();
  const uint64_t seed = row.grid.seeds.front();
  Rows rows;
  // The grid lists each bug followed by its fix.
  for (size_t i = 0; i + 1 < row.grid.bugs.size(); i += 2) {
    const std::string& bug = row.grid.bugs[i].id;
    const std::string& fix = row.grid.bugs[i + 1].id;
    const RunResult& b = report.Get(bug, RunMode::kRealScale, n, seed);
    const RunResult& f = report.Get(fix, RunMode::kRealScale, n, seed);
    rows.push_back({
        bug + " vs " + fix,
        Count(n),
        Count(b.flaps),
        Count(f.flaps),
        StrFormat("%.3fs", b.calc_duration_seconds.max()),
        StrFormat("%.3fs", f.calc_duration_seconds.max()),
        StrFormat("%.3fs", b.calc_lock_hold_seconds.max()),
        StrFormat("%.3fs", f.calc_lock_hold_seconds.max()),
    });
  }
  return RenderTable({"pair", "N", "flaps(bug)", "flaps(fix)", "calc max(bug)",
                      "calc max(fix)", "lock max(bug)", "lock max(fix)"},
                     rows);
}

// ---- §7 second target system ---------------------------------------------------
// The HDFS-like startup block-report storm per DataNode count: Real, Colo
// and SC+PIL (replaying a memoize run of the same deployment).
Result<std::string> SecondSystem(const ExperimentRow& row, const SuiteReport&, std::string*) {
  Rows rows;
  for (int n : row.grid.scales) {
    DfsConfig config;
    config.datanodes = n;
    MemoStore store;
    RunDfsStartup(config, DfsMode::kMemoize, &store);
    const std::pair<const char*, DfsResult> runs[] = {
        {"Real", RunDfsStartup(config, DfsMode::kRealScale)},
        {"Colo", RunDfsStartup(config, DfsMode::kColocated)},
        {"SC+PIL", RunDfsStartup(config, DfsMode::kPilReplay, &store)},
    };
    for (const auto& [mode, r] : runs) {
      rows.push_back({Count(n), mode, Count(r.dead_marks), Count(r.re_registrations),
                      Count(r.reports_shed), Count(r.scans_run),
                      r.stabilized ? r.stabilize_time.ToString() : "NEVER",
                      StrFormat("%.1f%%", r.namenode_utilization * 100)});
    }
  }
  return RenderTable(
      {"#DataNodes", "mode", "dead marks", "re-regs", "shed", "scans", "stable", "NN util"}, rows);
}

// ---- Robustness: accuracy under fault injection ------------------------------------
// Every KV request of `r` ends OK, as a counted give-up, or in flight at the
// horizon; the error names the run that lost one.
Status CheckConservation(const char* mode, int n, const RunResult& r) {
  const int64_t accounted = r.kv_ok + r.kv_unavailable + r.kv_timeout + r.kv_inflight_at_stop;
  if (r.kv_issued != accounted) {
    return Status::FailedPrecondition(StrFormat(
        "KV conservation violated (%s n=%d): issued=%lld but ok+unavail+timeout+inflight=%lld",
        mode, n, static_cast<long long>(r.kv_issued), static_cast<long long>(accounted)));
  }
  if (r.kv_gave_up != r.kv_unavailable + r.kv_timeout) {
    return Status::FailedPrecondition(
        StrFormat("KV conservation violated (%s n=%d): gave_up=%lld != unavail+timeout=%lld",
                  mode, n, static_cast<long long>(r.kv_gave_up),
                  static_cast<long long>(r.kv_unavailable + r.kv_timeout)));
  }
  return Status::Ok();
}

Result<std::string> FaultsAccuracy(const ExperimentRow& row, const SuiteReport& report,
                                   std::string*) {
  const std::string& id = row.grid.bugs.front().id;
  const uint64_t seed = row.grid.seeds.front();
  Rows rows;
  for (int n : row.grid.scales) {
    for (RunMode mode : row.grid.modes) {
      Status conserved = CheckConservation(RunModeName(mode), n, report.Get(id, mode, n, seed));
      if (!conserved.ok()) {
        return conserved;
      }
    }
    const RunResult& real = report.Get(id, RunMode::kRealScale, n, seed);
    const RunResult& colo = report.Get(id, RunMode::kColocated, n, seed);
    const RunResult& replay = report.Get(id, RunMode::kPilReplay, n, seed);
    rows.push_back({
        Count(n),
        Count(real.flaps),
        Count(colo.flaps),
        Count(replay.flaps),
        Percent(RelativeFlapError(colo.flaps, real.flaps)),
        Percent(RelativeFlapError(replay.flaps, real.flaps)),
        Count(real.fault_events_applied) + "/" + Count(real.fault_events_healed),
        Count(real.restarted_nodes),
        Count(real.messages_blocked),
        Count(real.kv_retries),
        Count(real.kv_gave_up),
    });
  }
  return RenderTable({"nodes", "real", "colo", "sc+pil", "colo err", "pil err", "faults",
                      "restarts", "blocked", "retries", "gave up"},
                     rows);
}

// ---- The table ---------------------------------------------------------------------

// The five Figure 3 seeds: the default suite seed and four more.
const std::vector<uint64_t> kFigure3Seeds = {kDefaultSuiteSeed, 1, 2, 3, 4};

ExperimentRow Figure3Row(const char* name, const char* caption, const char* bug) {
  return {name, caption,
          {.bugs = {BugCatalog::Get(bug)},
           .modes = kFigure3Modes,
           .scales = {32, 64, 128, 256},
           .seeds = kFigure3Seeds},
          Figure3};
}

// A row that deploys `scales` itself, outside ExperimentSuite.
ExperimentSpec OwnDeployments(std::vector<int> scales) {
  ExperimentSpec grid;
  grid.scales = std::move(scales);
  return grid;
}

// `id` with the horizon replaced.
BugSpec WithHorizon(const char* id, VirtualDuration horizon) {
  BugSpec spec = BugCatalog::Get(id);
  spec.horizon = horizon;
  return spec;
}

// C3831 under the standard-chaos plan with a retrying 40 ops/s KV client.
// The plan ends around t=190s; the 300 s horizon leaves room for the heals
// to take effect and the cluster to re-converge before the settlement check.
BugSpec ChaosSpec() {
  BugSpec spec = WithHorizon("C3831", VirtualDuration::Seconds(300));
  spec.fault_plan = "standard-chaos";
  spec.kv_ops_per_second = 40.0;
  return spec;
}

std::vector<ExperimentRow> BuildTable() {
  return {
      {"fig1", "Figure 1: a batch of N 2-second bursts on 1-core hosts.",
       OwnDeployments({2, 4, 8, 16, 32}), Figure1},
      Figure3Row("fig3a", "Figure 3(a): #flaps vs #nodes, C3831 decommission.", "C3831"),
      Figure3Row("fig3b", "Figure 3(b): #flaps vs #nodes, C3881 scale-out with vnodes.", "C3881"),
      Figure3Row("fig3c", "Figure 3(c): #flaps vs #nodes, C5456 scale-out under the ring lock.",
                 "C5456"),
      // A longer horizon than Figure 3's so contended memoize runs settle
      // instead of being truncated (which would compress the ratios).
      {"memo-replay", "Section 8: memoization vs replay vs real time (virtual) at 256 nodes.",
       {.bugs = {WithHorizon("C3831", VirtualDuration::Seconds(900)),
                 WithHorizon("C3881", VirtualDuration::Seconds(900)),
                 WithHorizon("C5456", VirtualDuration::Seconds(900))},
        .modes = {RunMode::kRealScale, RunMode::kMemoize, RunMode::kPilReplay},
        .scales = {256}},
       MemoReplay},
      // The same small scale-out on three runtime designs; the probe seed
      // predates the suite default.
      {"colocation-limit",
       "Section 8: maximum colocation factor on one 16-core/32GB machine, per-process vs "
       "SEDA-redesigned runtime vs space-oblivious rebalance.",
       {.bugs = {ColocationProbeSpec(ExecModel::kProcessPerNode, false),
                 ColocationProbeSpec(ExecModel::kSedaSingleProcess, false),
                 ColocationProbeSpec(ExecModel::kSedaSingleProcess, true)},
        .modes = {RunMode::kColocated},
        .scales = {128, 256, 384, 448, 512, 640, 1024, 2048},
        .seeds = {1234}},
       ColocationLimit},
      {"bug-study", "Sections 2-4: the scalability-bug study.", {}, BugStudy},
      {"calc-durations",
       "Section 3: modelled single-invocation duration of each calculator on a dedicated core.",
       {}, CalcDurations},
      {"sfind-report",
       "Figure 2(b): sfind's offending-function report, profiled at small scales.",
       OwnDeployments({8, 12, 16, 24}), SfindReport},
      {"extrapolation",
       "Section 4: C3831 real-scale runs at 16-64 nodes extrapolated to 256.",
       {.bugs = {BugCatalog::Get("C3831")},
        .modes = {RunMode::kRealScale},
        .scales = {16, 32, 48, 64, 256}},
       Extrapolation},
      {"ablation-fixes", "Section 2: each buggy configuration vs its historical fix, real scale.",
       {.bugs = {BugCatalog::Get("C3831"), BugCatalog::Get("C3831-fixed"),
                 BugCatalog::Get("C5456"), BugCatalog::Get("C5456-fixed")},
        .modes = {RunMode::kRealScale},
        .scales = {256}},
       AblationFixes},
      {"second-system", "Section 7: the HDFS-like startup block-report storm.",
       OwnDeployments({32, 64, 128, 256}), SecondSystem},
      {"faults-accuracy",
       "Fault-injection accuracy: C3831 under 'standard-chaos' with a 40 ops/s retrying KV "
       "client; fault and KV columns are the real run's.",
       {.bugs = {ChaosSpec()}, .modes = kFigure3Modes, .scales = {64, 128, 256}},
       FaultsAccuracy},
  };
}

}  // namespace

int ExperimentRow::LargestDeployment() const {
  return grid.scales.empty() ? 0 : *std::max_element(grid.scales.begin(), grid.scales.end());
}

const std::vector<ExperimentRow>& ExperimentTable() {
  static const std::vector<ExperimentRow>* table = new std::vector<ExperimentRow>(BuildTable());
  return *table;
}

const char* ExperimentName(const ExperimentRow* row) { return row == nullptr ? "none" : row->name; }

Result<std::string> RunExperiment(const ExperimentRow& row, int jobs, std::string* log) {
  const auto start = std::chrono::steady_clock::now();
  SuiteReport report;
  if (!row.grid.bugs.empty()) {
    ExperimentSpec grid = row.grid;
    grid.jobs = jobs;
    report = ExperimentSuite(std::move(grid)).Run();
  }
  Result<std::string> tables = row.format(row, report, log);
  *log += StrFormat("%s: %.1fs elapsed for %.1fs of runs\n", row.name,
                    std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
                    report.total_run_wall_seconds());
  if (!tables.ok()) {
    return tables.status();
  }
  std::string caption = row.caption;
  if (!row.grid.bugs.empty()) {
    std::vector<std::string> seeds;
    for (uint64_t seed : row.grid.seeds) {
      seeds.push_back(StrFormat("0x%llx", static_cast<unsigned long long>(seed)));
    }
    caption += " Seed" + std::string(seeds.size() > 1 ? "s " : " ") + Join(seeds, ", ") + ".";
  }
  return caption + "\n\n" + tables.value();
}

}  // namespace scalecheck
