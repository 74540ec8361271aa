// scalecheck_cli: run any bug scenario / mode / scale from the command line.
//
//   scalecheck_cli --bug=C3831 --mode=suite --sim-modes=real --nodes=64
//   scalecheck_cli --bug=C5456 --mode=suite --nodes=128 --seed=7 --jobs=4
//   scalecheck_cli --bug=C3881 --mode=suite --sim-modes=colo --nodes=96 --trace
//   scalecheck_cli --bug=C3831 --mode=suite --nodes=64 --json
//   scalecheck_cli --mode=real --nodes=16 --faults=island
//   scalecheck_cli --mode=experiment --table=fig3a --jobs=4
//
// --faults=NAME injects a seed-deterministic fault schedule (partitions,
// crash+restart, slow nodes, memory pressure) into every run; see
// src/faults/fault_plan.h for the named plans.
//
// Modes (src/scalecheck/cli_modes.h): suite | search | repro | real |
// experiment.
// --mode=suite picks simulated deployments via --sim-modes= (default all
// four: the Figure-3 grid through the host-parallel ExperimentSuite; --jobs=N
// adds workers without changing a single output byte). --sim-modes=memoize
// writes /tmp/scalecheck_<bug>.memo; --sim-modes=replay reads it — memoize
// once, replay as many times as debugging needs, the Figure 2 workflow.
// --mode=real boots N in-process nodes on REAL localhost TCP sockets and
// wall-clock timers and runs them to gossip convergence. With --faults=NAME
// the link-level events of the plan are replayed against the sockets
// (rescaled to the real gossip interval) and the run must then pass the
// partition-heals reconvergence bound, or the CLI exits 4.
// --mode=experiment prints one row of the experiment table
// (src/scalecheck/experiment_table.h) as the markdown EXPERIMENTS.md holds;
// host timings go to stderr, and a row whose check fails exits 1.
//
// Every flag is a row of the knob table (src/scalecheck/knob_table.h), which
// also generates the usage text. A flag the selected mode would ignore (a
// socket knob in a simulated mode, a BugSpec knob with --mode=real, any knob
// an artifact pins with --repro) is a usage error, exit 2, and so is a value
// that does not parse whole or lies outside the row's range.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/faults/fault_search.h"
#include "src/net/real_cluster.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/cli_modes.h"
#include "src/scalecheck/experiment_suite.h"
#include "src/scalecheck/experiment_table.h"
#include "src/scalecheck/knob_table.h"
#include "src/scalecheck/scale_check.h"

using namespace scalecheck;

namespace {

void Usage() {
  std::printf("%s  bugs:", KnobUsage().c_str());
  for (const std::string& id : BugCatalog::Ids()) {
    std::printf(" %s", id.c_str());
  }
  std::printf(
      "\n"
      "exit codes: 0 ok, 1 runtime error, 2 usage, 3 fidelity verdict invalid,\n"
      "            4 invariant violation\n");
}

int RunOne(const RunSettings& s, RunMode mode) {
  const BugSpec& spec = s.run.spec;
  std::string memo_path = "/tmp/scalecheck_" + spec.id + ".memo";
  MemoStore store;
  if (mode == RunMode::kPilReplay) {
    // The structured loader distinguishes a missing DB from a corrupt,
    // truncated, or version-skewed one — each needs different operator action.
    Result<MemoStore> loaded = MemoStore::Load(memo_path);
    if (!loaded.ok()) {
      if (loaded.status().code() == StatusCode::kNotFound) {
        std::fprintf(stderr, "no memo DB at %s — run --sim-modes=memoize first\n",
                     memo_path.c_str());
      } else {
        std::fprintf(stderr, "memo DB unusable (%s) — re-run --sim-modes=memoize\n",
                     loaded.status().ToString().c_str());
      }
      return 1;
    }
    store = std::move(loaded.value());
    std::printf("loaded memo DB: %zu records from %s\n", store.size(),
                memo_path.c_str());
  }

  // Driven through Cluster directly (not RunSingle) because the --trace dump
  // needs the cluster's trace object after the run.
  Cluster::Options options = spec.MakeClusterOptions(s.run.nodes, mode, s.run.seed);
  if (mode == RunMode::kMemoize || mode == RunMode::kPilReplay) {
    options.memo_store = &store;
  }
  options.enable_trace = s.trace;
  Cluster cluster(std::move(options));
  RunResult result = cluster.Run();
  if (s.json) {
    std::printf("%s\n", result.ToJson().c_str());
  } else {
    std::printf("%s\n", result.Summary().c_str());
  }

  if (s.trace) {
    std::printf("\ntrace digest: %s (%llu events); last entries:\n%s",
                cluster.trace()->ComputeDigest().ToHex().c_str(),
                static_cast<unsigned long long>(cluster.trace()->total_events()),
                cluster.trace()->DumpTail(15).c_str());
  }
  if (mode == RunMode::kMemoize) {
    Status saved = store.Save(memo_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "could not save memo DB to %s: %s\n", memo_path.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("memo DB saved: %zu records -> %s\n", store.size(),
                memo_path.c_str());
  }
  return RunExitCode(result);
}

// --repro=FILE: re-execute a ChaosSearch artifact. The replayed run must
// reach the byte-identical InvariantReport the artifact recorded; any
// mismatch is a hard error (1), a reproduced violation exits 4. An artifact
// whose KV keys would act on nothing (CheckArtifactKnobs) exits 2, as the
// same flags would.
int RunRepro(const RunSettings& s) {
  std::ifstream in(s.repro);
  if (!in) {
    std::fprintf(stderr, "cannot read repro artifact %s\n", s.repro.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  Result<ReproReplay> replay = ReplayRepro(text.str());
  if (!replay.ok()) {
    std::fprintf(stderr, "repro artifact rejected: %s\n",
                 replay.status().ToString().c_str());
    // A KV setting the replay would not act on breaks the flag rule: usage.
    return replay.status().code() == StatusCode::kFailedPrecondition ? 2 : 1;
  }
  const ReproReplay& out = replay.value();
  if (s.json) {
    std::printf("%s\n", out.result.ToJson().c_str());
  } else {
    std::printf("%s\n", out.result.Summary().c_str());
  }
  if (!out.invariants_match) {
    std::fprintf(stderr,
                 "repro FAILED: replayed invariant report differs from the "
                 "artifact (expected %s)\n",
                 Join(out.expected_violated, ",").c_str());
    return 1;
  }
  if (!s.json) {
    std::printf("repro OK: reproduced [%s] byte-identically\n",
                Join(out.expected_violated, ",").c_str());
  }
  return RunExitCode(out.result);
}

int RunSearch(const RunSettings& s) {
  FaultSearchConfig config = s.run;
  config.generation_size = std::min(config.generation_size, config.budget);
  FaultSearchReport report = FaultSearch(config).Run();
  if (s.json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::printf("search: %zu candidates, baseline flaps %lld\n",
                report.candidates.size(),
                static_cast<long long>(report.baseline_flaps));
    if (report.found_violation) {
      std::printf("violation found: candidate %d violates [%s]\n",
                  report.violating_index, Join(report.violated, ",").c_str());
      std::printf("minimized: %zu event(s) (from %zu) in %d shrink runs\n",
                  report.minimized_plan.events.size(),
                  report.violating_plan.events.size(), report.minimize_runs);
      std::printf("%s\n", report.minimized_plan.Describe().c_str());
    } else {
      std::printf("no invariant violation within budget\n");
    }
  }
  if (report.found_violation && !s.repro_out.empty()) {
    std::ofstream out(s.repro_out);
    if (!out) {
      std::fprintf(stderr, "cannot write repro artifact %s\n",
                   s.repro_out.c_str());
      return 1;
    }
    out << report.repro_json << "\n";
    if (!s.json) {
      std::printf("repro artifact -> %s\n", s.repro_out.c_str());
    }
  }
  return report.found_violation ? 4 : 0;
}

// --mode=real: the same Gossiper/ring/KvService translation units that run in
// the simulator, on real localhost TCP sockets and wall-clock timers. No
// BugSpec here — real mode measures the substrate itself, not a catalog
// scenario.
int RunReal(const RunSettings& s) {
  RealCluster::Options options = s.real;
  options.config.initial_nodes = s.run.nodes;
  options.config.seed = s.run.seed;
  options.config.kv.enabled = options.kv_ops > 0;
  // Same named plans as sim mode; RealCluster rescales the schedule to its
  // gossip interval and reports a partition-heals verdict (exit code 4 on
  // a cluster that fails to reconverge).
  options.faults = FaultPlan::ByName(s.run.spec.fault_plan, s.run.nodes, s.run.seed);
  RealCluster cluster(options);
  RunResult result = cluster.Run();
  if (s.json) {
    std::printf("%s\n", result.ToJson().c_str());
  } else {
    std::printf("%s\n", result.Summary().c_str());
  }
  if (!result.settled) {
    std::fprintf(stderr, "real cluster did not converge within %.0fs\n",
                 options.convergence_timeout.seconds());
    return 1;
  }
  return RunExitCode(result);
}

int RunExperimentTable(const RunSettings& s) {
  std::string log;
  Result<std::string> table = RunExperiment(*s.table, s.run.jobs, &log);
  std::fprintf(stderr, "%s", log.c_str());
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().message().c_str());
    return 1;
  }
  std::printf("%s", table.value().c_str());
  return 0;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  Usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (std::any_of(args.begin(), args.end(),
                  [](const std::string& arg) { return arg == "--help" || arg == "-h"; })) {
    Usage();
    return 2;
  }
  Result<CliArgs> parsed = ParseCliArgs(args);
  if (!parsed.ok()) {
    return UsageError(parsed.status().message());
  }
  const RunSettings& s = parsed.value().settings;
  Result<ModeSelection> mode = SelectMode(parsed.value());
  if (!mode.ok()) {
    return UsageError(mode.status().message());
  }
  const ModeSelection& sel = mode.value();
  if (sel.kind == CliModeKind::kRepro) {
    return RunRepro(s);
  }
  if (sel.kind == CliModeKind::kReal) {
    return RunReal(s);
  }
  if (sel.kind == CliModeKind::kExperiment) {
    return RunExperimentTable(s);
  }
  const BugSpec& spec = s.run.spec;
  if (!s.json) {
    std::printf("%s: %s\n", spec.id.c_str(), spec.description.c_str());
    if (!spec.fault_plan.empty() && spec.fault_plan != "none") {
      std::printf("faults: %s\n",
                  spec.MakeFaultPlan(s.run.nodes, s.run.seed).Describe().c_str());
    }
  }

  if (sel.kind == CliModeKind::kSearch) {
    return RunSearch(s);
  }
  if (sel.IsFullGrid()) {
    ScaleCheckResult full = RunComparison(spec, s.run.nodes, s.run.seed, s.run.jobs);
    // Any invalid mode taints the whole comparison.
    int exit_code = std::max(
        std::max(RunExitCode(full.real), RunExitCode(full.colo)),
        std::max(RunExitCode(full.memoize), RunExitCode(full.replay)));
    if (s.json) {
      std::printf("%s\n", full.ToJson().c_str());
      return exit_code;
    }
    std::printf("  real:    %s\n", full.real.Summary().c_str());
    std::printf("  colo:    %s\n", full.colo.Summary().c_str());
    std::printf("  memoize: %s\n", full.memoize.Summary().c_str());
    std::printf("  replay:  %s\n", full.replay.Summary().c_str());
    std::printf("PIL flap error vs real: %.0f%%; colo error: %.0f%%\n",
                full.replay_flap_error * 100.0, full.colo_flap_error * 100.0);
    return exit_code;
  }
  // A subset of simulated deployments: run them sequentially in request
  // order; the worst exit code wins so CI gates stay honest.
  int exit_code = 0;
  for (RunMode run_mode : sel.sim_modes) {
    exit_code = std::max(exit_code, RunOne(s, run_mode));
  }
  return exit_code;
}
