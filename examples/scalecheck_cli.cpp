// scalecheck_cli: run any bug scenario / mode / scale from the command line.
//
//   scalecheck_cli --bug=C3831 --mode=suite --sim-modes=real --nodes=64
//   scalecheck_cli --bug=C5456 --mode=suite --nodes=128 --seed=7 --jobs=4
//   scalecheck_cli --bug=C3881 --mode=suite --sim-modes=colo --nodes=96 --trace
//   scalecheck_cli --bug=C3831 --mode=suite --nodes=64 --json
//   scalecheck_cli --mode=real --nodes=16 --faults=island
//
// --faults=NAME injects a seed-deterministic fault schedule (partitions,
// crash+restart, slow nodes, memory pressure) into every run; see
// src/faults/fault_plan.h for the named plans.
//
// Modes (src/scalecheck/cli_modes.h): suite | search | repro | real.
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
//
// A flag the selected mode would ignore (a socket knob in a simulated mode, a
// BugSpec knob with --mode=real) is a usage error, exit 2.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cluster/workload.h"
#include "src/common/logging.h"
#include "src/faults/fault_search.h"
#include "src/net/real_cluster.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/cli_modes.h"
#include "src/scalecheck/experiment_suite.h"
#include "src/scalecheck/scale_check.h"

using namespace scalecheck;

namespace {

struct CliOptions {
  std::string bug = "C3831";
  std::string mode = "suite";
  std::string sim_modes;  // --mode=suite: CSV of real|colo|memoize|replay
  int nodes = 64;
  uint64_t seed = 0x5ca1ec4ecULL;
  int jobs = 1;
  bool trace = false;
  bool json = false;
  std::string faults;
  // 0 keeps the spec's default lateness budgets; > 0 sets the invalid
  // threshold to this many milliseconds (degraded at half of it).
  double guard_lateness_p99_ms = 0.0;
  bool have_replay_policy = false;
  ReplayPolicy replay_policy = ReplayPolicy::kFallbackToModelled;
  // ---- ChaosSearch ----------------------------------------------------------
  int search_budget = 32;
  uint64_t search_seed = 0xc4a05ULL;
  bool plant_bug = false;
  std::string repro_out;  // --mode=search: save the repro artifact here
  std::string repro;      // --mode=repro: the artifact to replay
  // ---- Data path ------------------------------------------------------------
  // Workload override: the KV invariants are only checkable on workloads
  // that preserve key ownership (steady-state / failover), and no catalog
  // bug uses one — a durability smoke needs to swap the workload in.
  bool have_workload = false;
  WorkloadKind workload = WorkloadKind::kSteadyState;
  bool have_kv_consistency = false;
  KvConsistency kv_consistency = KvConsistency::kQuorum;
  bool kv_wal = false;        // durable replica path (WAL + group commit)
  bool plant_kv_bug = false;  // plant the ack-before-sync durability bug
  bool plant_repair_storm = false;  // plant the unthrottled repair-storm bug
  double kv_rate = 0.0;       // sim modes: KV client ops/second (0 = spec's)
  bool kv_repair = false;     // anti-entropy repair (Merkle exchange)
  int64_t kv_repair_rate = 0;       // repair stream budget B/s (0 = default)
  int kv_repair_max_sessions = 0;   // concurrent repair sessions (0 = default)
  bool have_kv_key_dist = false;
  KvKeyDist kv_key_dist = KvKeyDist::kUniform;
  double kv_zipf_s = 1.0;
  // ---- Real sockets (--mode=real) -----------------------------------------
  int real_seconds = 30;  // convergence timeout, wall clock
  int gossip_ms = 100;    // gossip round interval
  int kv_ops = 0;         // quorum write+read pairs after convergence
};

bool ParseReplayPolicy(const char* name, ReplayPolicy* out) {
  if (std::strcmp(name, "strict") == 0) {
    *out = ReplayPolicy::kStrict;
  } else if (std::strcmp(name, "warn") == 0) {
    *out = ReplayPolicy::kWarn;
  } else if (std::strcmp(name, "fallback") == 0) {
    *out = ReplayPolicy::kFallbackToModelled;
  } else {
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* bug = value_of("--bug=")) {
      out->bug = bug;
    } else if (const char* mode = value_of("--mode=")) {
      out->mode = mode;
    } else if (const char* modes = value_of("--sim-modes=")) {
      out->sim_modes = modes;
    } else if (const char* secs = value_of("--real-seconds=")) {
      out->real_seconds = std::atoi(secs);
      if (out->real_seconds < 1) {
        std::fprintf(stderr, "--real-seconds needs a positive value\n");
        return false;
      }
    } else if (const char* ms = value_of("--gossip-ms=")) {
      out->gossip_ms = std::atoi(ms);
      if (out->gossip_ms < 1) {
        std::fprintf(stderr, "--gossip-ms needs a positive value\n");
        return false;
      }
    } else if (const char* ops = value_of("--kv-ops=")) {
      out->kv_ops = std::atoi(ops);
      if (out->kv_ops < 0) {
        std::fprintf(stderr, "--kv-ops cannot be negative\n");
        return false;
      }
    } else if (const char* wl = value_of("--workload=")) {
      Result<WorkloadKind> parsed = WorkloadKindFromName(wl);
      if (!parsed.ok()) {
        std::fprintf(stderr, "unknown workload '%s'\n", wl);
        return false;
      }
      out->workload = parsed.value();
      out->have_workload = true;
    } else if (const char* level = value_of("--kv-consistency=")) {
      Result<KvConsistency> parsed = KvConsistencyFromName(level);
      if (!parsed.ok()) {
        std::fprintf(stderr, "unknown consistency level '%s'\n", level);
        return false;
      }
      out->kv_consistency = parsed.value();
      out->have_kv_consistency = true;
    } else if (const char* rate = value_of("--kv-rate=")) {
      out->kv_rate = std::atof(rate);
      if (out->kv_rate < 0.0) {
        std::fprintf(stderr, "--kv-rate cannot be negative\n");
        return false;
      }
    } else if (const char* nodes = value_of("--nodes=")) {
      out->nodes = std::atoi(nodes);
    } else if (const char* seed = value_of("--seed=")) {
      out->seed = std::strtoull(seed, nullptr, 0);
    } else if (const char* jobs = value_of("--jobs=")) {
      out->jobs = std::atoi(jobs);
    } else if (const char* faults = value_of("--faults=")) {
      if (!FaultPlan::IsKnown(faults)) {
        std::fprintf(stderr, "unknown fault plan '%s'\n", faults);
        return false;
      }
      out->faults = faults;
    } else if (const char* ms = value_of("--guard-lateness-p99-ms=")) {
      out->guard_lateness_p99_ms = std::atof(ms);
      if (out->guard_lateness_p99_ms <= 0.0) {
        std::fprintf(stderr, "--guard-lateness-p99-ms needs a positive value\n");
        return false;
      }
    } else if (const char* policy = value_of("--replay-policy=")) {
      if (!ParseReplayPolicy(policy, &out->replay_policy)) {
        std::fprintf(stderr, "unknown replay policy '%s'\n", policy);
        return false;
      }
      out->have_replay_policy = true;
    } else if (const char* budget = value_of("--search-budget=")) {
      out->search_budget = std::atoi(budget);
      if (out->search_budget < 1) {
        std::fprintf(stderr, "--search-budget needs a positive value\n");
        return false;
      }
    } else if (const char* sseed = value_of("--search-seed=")) {
      out->search_seed = std::strtoull(sseed, nullptr, 0);
    } else if (const char* path = value_of("--repro-out=")) {
      out->repro_out = path;
    } else if (const char* path = value_of("--repro=")) {
      out->repro = path;
    } else if (arg == "--plant-bug") {
      out->plant_bug = true;
    } else if (arg == "--plant-kv-bug") {
      out->plant_kv_bug = true;
    } else if (const char* which = value_of("--plant-kv-bug=")) {
      if (std::strcmp(which, "ack-before-sync") == 0) {
        out->plant_kv_bug = true;
      } else if (std::strcmp(which, "repair-storm") == 0) {
        out->plant_repair_storm = true;
      } else {
        std::fprintf(stderr, "unknown kv bug '%s'\n", which);
        return false;
      }
    } else if (arg == "--kv-repair") {
      out->kv_repair = true;
    } else if (const char* rate = value_of("--kv-repair-rate=")) {
      out->kv_repair_rate = std::strtoll(rate, nullptr, 0);
      if (out->kv_repair_rate < 1) {
        std::fprintf(stderr, "--kv-repair-rate needs a positive byte rate\n");
        return false;
      }
    } else if (const char* sess = value_of("--kv-repair-max-sessions=")) {
      out->kv_repair_max_sessions = std::atoi(sess);
      if (out->kv_repair_max_sessions < 1) {
        std::fprintf(stderr,
                     "--kv-repair-max-sessions needs a positive value\n");
        return false;
      }
    } else if (const char* dist = value_of("--kv-key-dist=")) {
      if (std::strcmp(dist, "uniform") == 0) {
        out->kv_key_dist = KvKeyDist::kUniform;
      } else if (std::strncmp(dist, "zipf", 4) == 0) {
        out->kv_key_dist = KvKeyDist::kZipf;
        if (dist[4] == ':') {
          out->kv_zipf_s = std::atof(dist + 5);
          if (out->kv_zipf_s <= 0.0) {
            std::fprintf(stderr, "zipf exponent must be positive\n");
            return false;
          }
        } else if (dist[4] != '\0') {
          std::fprintf(stderr, "unknown key distribution '%s'\n", dist);
          return false;
        }
      } else {
        std::fprintf(stderr, "unknown key distribution '%s'\n", dist);
        return false;
      }
      out->have_kv_key_dist = true;
    } else if (arg == "--kv-wal") {
      out->kv_wal = true;
    } else if (arg == "--trace") {
      out->trace = true;
    } else if (arg == "--json") {
      out->json = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return out->nodes >= 2;
}

void Usage() {
  std::string bugs;
  for (const std::string& id : BugCatalog::Ids()) {
    bugs += " " + id;
  }
  std::printf(
      "usage: scalecheck_cli [--bug=ID] [--mode=M] [--nodes=N] [--seed=S]\n"
      "                      [--jobs=J] [--faults=PLAN] [--trace] [--json]\n"
      "                      [--sim-modes=CSV] [--guard-lateness-p99-ms=MS]\n"
      "                      [--replay-policy=P] [--search-budget=B]\n"
      "                      [--search-seed=S] [--plant-bug] [--repro-out=FILE]\n"
      "                      [--repro=FILE] [--real-seconds=T] [--gossip-ms=MS]\n"
      "                      [--kv-ops=K] [--kv-rate=OPS] [--kv-wal]\n"
      "                      [--kv-consistency=L] [--plant-kv-bug[=B]]\n"
      "                      [--kv-repair] [--kv-repair-rate=BYTES]\n"
      "                      [--kv-repair-max-sessions=S] [--kv-key-dist=D]\n"
      "                      [--workload=W]\n"
      "  bugs: %s\n"
      "  modes: suite search repro real\n"
      "  --sim-modes=CSV             --mode=suite only: which simulated\n"
      "                              deployments (real|colo|memoize|replay;\n"
      "                              default all four, the comparison grid)\n"
      "  --mode=real                 boot N in-process nodes on REAL localhost\n"
      "                              TCP sockets + wall-clock timers, run to\n"
      "                              gossip convergence, export RunResult JSON\n"
      "  --real-seconds=T            real mode: convergence timeout (default 30)\n"
      "  --gossip-ms=MS              real mode: gossip interval (default 100)\n"
      "  --kv-ops=K                  real mode: K quorum writes+reads after\n"
      "                              convergence (default 0 = membership only)\n"
      "  --kv-rate=OPS               sim modes: KV client load in ops/second\n"
      "                              (overrides the spec; > 0 enables the KV\n"
      "                              service and load driver)\n"
      "  --kv-consistency=L          one | quorum | all — ack threshold for KV\n"
      "                              reads and writes (default quorum)\n"
      "  --kv-wal                    durable replica path: per-node WAL with\n"
      "                              group commit; crash loses the unsynced\n"
      "                              tail, restart replays the durable prefix;\n"
      "                              arms the kv-durability invariant\n"
      "  --plant-kv-bug[=B]          plant a KV bug: ack-before-sync (default;\n"
      "                              the crash-durability search smoke target,\n"
      "                              needs --kv-wal) or repair-storm (repair\n"
      "                              ignores its throttle and floods full-range\n"
      "                              streams; needs --kv-repair — the budget\n"
      "                              facet of replica-convergence flags it)\n"
      "  --kv-repair                 anti-entropy repair: periodic Merkle-tree\n"
      "                              exchange with co-replicas streams only\n"
      "                              differing key ranges; arms the\n"
      "                              replica-convergence invariant\n"
      "  --kv-repair-rate=BYTES      repair stream budget in bytes/second per\n"
      "                              node (default 262144)\n"
      "  --kv-repair-max-sessions=S  concurrent repair sessions per node\n"
      "                              (default 1)\n"
      "  --kv-key-dist=D             uniform | zipf[:s] — KV driver key\n"
      "                              popularity (zipf default s=1.0)\n"
      "  --workload=W                override the bug's workload: steady-state |\n"
      "                              decommission | scale-out | bootstrap-fresh |\n"
      "                              failover | rebalance (KV invariants only\n"
      "                              probe on steady-state and failover)\n"
      "  fault plans: none standard-chaos partition crash-restart slow-node\n"
      "               memory-pressure island\n"
      "               (island = the ChaosSearch islanding reproducer: one full\n"
      "               partition of node N-1 for ~32 gossip rounds)\n"
      "               --mode=real replays link-level plans against the TCP\n"
      "               carrier, rescaled to --gossip-ms, and exits 4 if the\n"
      "               cluster fails the partition-heals reconvergence bound\n"
      "  --guard-lateness-p99-ms=MS  fidelity budget: p99 event lateness above\n"
      "                              MS ms invalidates the run (degraded at MS/2)\n"
      "  --replay-policy=P           strict | warn | fallback — what a replay\n"
      "                              divergence does (strict aborts + invalid)\n"
      "  --mode=search               ChaosSearch: explore seed-deterministic\n"
      "                              fault plans, score by invariant violations,\n"
      "                              shrink the first hit to a minimal reproducer\n"
      "  --search-budget=B           candidate plans to try (default 32)\n"
      "  --search-seed=S             seed for plan generation (not the sim seed)\n"
      "  --plant-bug                 plant the recovery bug the search smoke\n"
      "                              must find (see CheckOptions)\n"
      "  --repro-out=FILE            search: write the repro artifact here\n"
      "  --repro=FILE                replay an artifact; must reproduce the\n"
      "                              identical violation report\n"
      "exit codes: 0 ok, 1 runtime error, 2 usage, 3 fidelity verdict invalid,\n"
      "            4 invariant violation\n",
      bugs.c_str());
}

// The first argument the selected mode would silently drop, or nullptr.
// --mode=real boots sockets from its own knobs and runs no BugSpec; the
// simulated modes run a BugSpec and open no sockets. A flag ending in '='
// matches any value, the others match exactly (--plant-kv-bug=repair-storm
// plants its bug on the socket carrier too).
const char* IgnoredFlag(int argc, char** argv, bool real) {
  static const std::vector<std::string_view> kSimOnly = {
      "--bug=", "--workload=", "--kv-rate=", "--kv-key-dist=", "--jobs=",
      "--guard-lateness-p99-ms=", "--replay-policy=", "--plant-bug",
      "--plant-kv-bug", "--plant-kv-bug=ack-before-sync", "--trace"};
  static const std::vector<std::string_view> kRealOnly = {
      "--real-seconds=", "--gossip-ms=", "--kv-ops="};
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    for (std::string_view flag : real ? kSimOnly : kRealOnly) {
      if (flag.ends_with('=') ? arg.starts_with(flag) : arg == flag) {
        return argv[i];
      }
    }
  }
  return nullptr;
}

int RunOne(const BugSpec& spec, const CliOptions& cli, RunMode mode) {
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
  Cluster::Options options = spec.MakeClusterOptions(cli.nodes, mode, cli.seed);
  if (mode == RunMode::kMemoize || mode == RunMode::kPilReplay) {
    options.memo_store = &store;
  }
  options.enable_trace = cli.trace;
  Cluster cluster(std::move(options));
  RunResult result = cluster.Run();
  if (cli.json) {
    std::printf("%s\n", result.ToJson().c_str());
  } else {
    std::printf("%s\n", result.Summary().c_str());
  }

  if (cli.trace) {
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
// mismatch is a hard error (1), a reproduced violation exits 4.
int RunRepro(const CliOptions& cli) {
  std::ifstream in(cli.repro);
  if (!in) {
    std::fprintf(stderr, "cannot read repro artifact %s\n", cli.repro.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  Result<ReproReplay> replay = ReplayRepro(text.str());
  if (!replay.ok()) {
    std::fprintf(stderr, "repro artifact rejected: %s\n",
                 replay.status().ToString().c_str());
    return 1;
  }
  const ReproReplay& out = replay.value();
  if (cli.json) {
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
  if (!cli.json) {
    std::printf("repro OK: reproduced [%s] byte-identically\n",
                Join(out.expected_violated, ",").c_str());
  }
  return RunExitCode(out.result);
}

int RunSearch(const BugSpec& spec, const CliOptions& cli) {
  FaultSearchConfig config;
  config.spec = spec;
  config.nodes = cli.nodes;
  config.mode = RunMode::kColocated;
  config.seed = cli.seed;
  config.search_seed = cli.search_seed;
  config.budget = cli.search_budget;
  config.generation_size = std::min(8, cli.search_budget);
  config.jobs = cli.jobs;
  FaultSearchReport report = FaultSearch(config).Run();
  if (cli.json) {
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
  if (report.found_violation && !cli.repro_out.empty()) {
    std::ofstream out(cli.repro_out);
    if (!out) {
      std::fprintf(stderr, "cannot write repro artifact %s\n",
                   cli.repro_out.c_str());
      return 1;
    }
    out << report.repro_json << "\n";
    if (!cli.json) {
      std::printf("repro artifact -> %s\n", cli.repro_out.c_str());
    }
  }
  return report.found_violation ? 4 : 0;
}

// --mode=real: the same Gossiper/ring/KvService translation units that run in
// the simulator, on real localhost TCP sockets and wall-clock timers. No
// BugSpec here — real mode measures the substrate itself, not a catalog
// scenario.
int RunReal(const CliOptions& cli) {
  RealCluster::Options options;
  options.config.initial_nodes = cli.nodes;
  options.config.seed = cli.seed;
  options.config.gossip_interval = VirtualDuration::Millis(cli.gossip_ms);
  options.config.enable_kv = cli.kv_ops > 0;
  if (cli.have_kv_consistency) {
    options.config.kv_consistency = cli.kv_consistency;
  }
  options.config.kv_wal = cli.kv_wal;
  options.config.kv_repair = cli.kv_repair;
  if (cli.kv_repair_rate > 0) {
    options.config.kv_repair_rate_bytes = cli.kv_repair_rate;
  }
  if (cli.kv_repair_max_sessions > 0) {
    options.config.kv_repair_max_sessions = cli.kv_repair_max_sessions;
  }
  options.config.check.plant_repair_storm = cli.plant_repair_storm;
  options.kv_ops = cli.kv_ops;
  options.convergence_timeout = VirtualDuration::Seconds(cli.real_seconds);
  if (!cli.faults.empty()) {
    // Same named plans as sim mode; RealCluster rescales the schedule to its
    // gossip interval and reports a partition-heals verdict (exit code 4 on
    // a cluster that fails to reconverge).
    options.faults = FaultPlan::ByName(cli.faults, cli.nodes, cli.seed);
  }
  RealCluster cluster(options);
  RunResult result = cluster.Run();
  if (cli.json) {
    std::printf("%s\n", result.ToJson().c_str());
  } else {
    std::printf("%s\n", result.Summary().c_str());
  }
  if (!result.settled) {
    std::fprintf(stderr, "real cluster did not converge within %ds\n",
                 cli.real_seconds);
    return 1;
  }
  return RunExitCode(result);
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    Usage();
    return 2;
  }
  Result<ModeSelection> parsed = ParseCliMode(cli.mode, cli.sim_modes);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    Usage();
    return 2;
  }
  const ModeSelection sel = parsed.value();
  if (const char* flag = IgnoredFlag(argc, argv, sel.kind == CliModeKind::kReal)) {
    std::fprintf(stderr, "%s has no effect with --mode=%s\n", flag, cli.mode.c_str());
    Usage();
    return 2;
  }
  // A --repro artifact implies repro mode regardless of --mode (historical
  // behavior); --mode=repro without an artifact is a usage error.
  if (!cli.repro.empty()) {
    return RunRepro(cli);
  }
  if (sel.kind == CliModeKind::kRepro) {
    std::fprintf(stderr, "--mode=repro needs --repro=FILE\n");
    Usage();
    return 2;
  }
  if (sel.kind == CliModeKind::kReal) {
    return RunReal(cli);
  }
  const BugSpec* catalog_spec = BugCatalog::TryGet(cli.bug);
  if (catalog_spec == nullptr) {
    std::fprintf(stderr, "unknown bug id '%s'\n", cli.bug.c_str());
    Usage();
    return 2;
  }
  BugSpec spec = *catalog_spec;
  if (!cli.faults.empty()) {
    spec.fault_plan = cli.faults;
  }
  if (cli.guard_lateness_p99_ms > 0.0) {
    spec.guard.lateness_p99_invalid =
        VirtualDuration::Micros(static_cast<int64_t>(cli.guard_lateness_p99_ms * 1000.0));
    spec.guard.lateness_p99_degraded =
        VirtualDuration::Micros(static_cast<int64_t>(cli.guard_lateness_p99_ms * 500.0));
  }
  if (cli.have_replay_policy) {
    spec.replay_policy = cli.replay_policy;
  }
  if (cli.plant_bug) {
    spec.check.plant_left_join_bug = true;
  }
  if (cli.have_kv_consistency) {
    spec.kv_consistency = cli.kv_consistency;
  }
  if (cli.kv_wal) {
    spec.kv_wal = true;
  }
  if (cli.plant_kv_bug) {
    spec.check.plant_kv_ack_before_sync = true;
  }
  if (cli.kv_repair) {
    spec.kv_repair = true;
  }
  if (cli.kv_repair_rate > 0) {
    spec.kv_repair_rate_bytes = cli.kv_repair_rate;
  }
  if (cli.kv_repair_max_sessions > 0) {
    spec.kv_repair_max_sessions = cli.kv_repair_max_sessions;
  }
  if (cli.plant_repair_storm) {
    spec.check.plant_repair_storm = true;
  }
  if (cli.have_kv_key_dist) {
    spec.kv_key_dist = cli.kv_key_dist;
    spec.kv_zipf_s = cli.kv_zipf_s;
  }
  if (cli.kv_rate > 0.0) {
    spec.kv_ops_per_second = cli.kv_rate;
  }
  if (cli.have_workload) {
    spec.workload = cli.workload;
  }
  if (!cli.json) {
    std::printf("%s: %s\n", spec.id.c_str(), spec.description.c_str());
    if (!spec.fault_plan.empty() && spec.fault_plan != "none") {
      std::printf("faults: %s\n",
                  spec.MakeFaultPlan(cli.nodes, cli.seed).Describe().c_str());
    }
  }

  if (sel.kind == CliModeKind::kSearch) {
    return RunSearch(spec, cli);
  }
  if (sel.IsFullGrid()) {
    ScaleCheckResult full = RunComparison(spec, cli.nodes, cli.seed, cli.jobs);
    // Any invalid mode taints the whole comparison.
    int exit_code = std::max(
        std::max(RunExitCode(full.real), RunExitCode(full.colo)),
        std::max(RunExitCode(full.memoize), RunExitCode(full.replay)));
    if (cli.json) {
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
  for (RunMode mode : sel.sim_modes) {
    exit_code = std::max(exit_code, RunOne(spec, cli, mode));
  }
  return exit_code;
}
