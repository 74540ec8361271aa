// Simulation-core perf-regression bench (BENCH_simcore.json).
//
// Measures the harness's own overhead — not the modelled work — on the two
// hot paths that dominate wall-clock at large N: the discrete-event engine
// and the per-round gossip digest machinery. The headline scenario is the §8
// colocation-limit probe (SEDA runtime, N=512 on one simulated 16-core box)
// run end to end with jobs=1, which is exactly the configuration the paper
// says a scale check must keep cheap.
//
//   bench/perf_simcore [--nodes=512,1024,2048] [--out=BENCH_simcore.json]
//   bench/perf_simcore --smoke        # operation-count assertions, no timing
//   bench/perf_simcore --floor        # N=256 events/s floor (CI gate leg)
//
// `--nodes=` takes a comma-separated list; the JSON output is an ARRAY of
// rows, one per N, each carrying the run's fidelity verdict and the
// memory-layout profile counters (digest bytes, arena bytes, intern table).
// The N=512 row embeds the pre-overhaul baseline numbers (recorded on this
// machine, RelWithDebInfo, jobs=1) so every future run reports its speedup
// against a fixed reference.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/sim/event_queue.h"
#include "src/sim/fidelity_guard.h"
#include "src/sim/profiler.h"

namespace scalecheck {
namespace {

// Pre-overhaul baseline, measured on the CI container (single core,
// RelWithDebInfo) at N=512, horizon 120 s, seed 1234, jobs=1. Mean of five
// runs of the pre-overhaul tree recorded 2026-08-07, interleaved with
// post-overhaul runs on the same host to cancel machine drift (individual
// runs ranged 48.4–57.4 s wall). See EXPERIMENTS.md for how to re-derive.
constexpr double kBaselineWallS = 53.17;
constexpr double kBaselineEventsPerS = 8742.0;
constexpr double kBaselineQueueOpsPerS = 873781.0;

BugSpec ProbeSpec() {
  BugSpec spec;
  spec.id = "perf-probe-seda";
  spec.description = "simulation-core perf probe (§8 colocation limit)";
  spec.calc_version = CalcVersion::kV3C3881Fix;
  spec.placement = CalcPlacement::kInlineGossipStage;
  spec.vnodes_per_node = 1;
  spec.workload = WorkloadKind::kScaleOut;
  spec.join_fraction = 1.0 / 32;
  spec.horizon = VirtualDuration::Seconds(120);
  spec.transition_override = VirtualDuration::Seconds(20);
  spec.exec_model = ExecModel::kSedaSingleProcess;
  return spec;
}

// Event-queue micro throughput: schedule/cancel/pop mix, cancel-heavy the way
// timer-driven simulations are (every retry timer is armed and then almost
// always cancelled).
double QueueOpsPerSecond() {
  constexpr int kOps = 2'000'000;
  EventQueue q;
  Rng rng(42);
  std::vector<EventId> live;
  live.reserve(1024);
  bench::WallTimer timer;
  int64_t done = 0;
  while (done < kOps) {
    double roll = rng.UniformDouble();
    if (roll < 0.55 || q.empty()) {
      VirtualTime t = VirtualTime::Zero() +
                      VirtualDuration::Nanos(rng.UniformInt(0, 1'000'000'000));
      live.push_back(q.Schedule(t, [] {}));
    } else if (roll < 0.80 && !live.empty()) {
      size_t idx = rng.PickIndex(live.size());
      q.Cancel(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    } else {
      VirtualTime t;
      q.Pop(&t);
    }
    ++done;
  }
  while (!q.empty()) {
    VirtualTime t;
    q.Pop(&t);
    ++done;
  }
  return static_cast<double>(done) / timer.Seconds();
}

// Recorded N=256 floor reference for `--floor` (same probe, horizon 120 s,
// seed 1234, jobs=1, RelWithDebInfo, quiet host, post-overhaul tree,
// 2026-08-09). The gate trips only on a >20% events/s regression, which
// leaves margin for ordinary CI-host noise.
constexpr double kFloorNodes256EventsPerS = 96000.0;
constexpr double kFloorAllowedRegression = 0.20;

std::vector<int> NodesListFromArgs(int argc, char** argv) {
  std::vector<int> nodes;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string prefix = "--nodes=";
    if (arg.rfind(prefix, 0) == 0) {
      std::string list = arg.substr(prefix.size());
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        std::string item = list.substr(
            start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!item.empty()) {
          nodes.push_back(std::stoi(item));
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    }
  }
  if (nodes.empty()) {
    nodes.push_back(512);
  }
  return nodes;
}

std::string OutFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string prefix = "--out=";
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return "BENCH_simcore.json";
}

bool FlagInArgs(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      return true;
    }
  }
  return false;
}

// One timed probe run at `nodes`, profiled so the row can report the
// memory-layout counters alongside throughput and the fidelity verdict.
struct ProbeRow {
  int nodes = 0;
  double wall_s = 0.0;
  uint64_t events_executed = 0;
  double events_per_s = 0.0;
  std::string fidelity_verdict;
  SimProfiler::Counters counters;
};

ProbeRow RunProbe(int nodes) {
  BugSpec spec = ProbeSpec();
  std::printf("colocation probe N=%d (horizon %s, jobs=1): ", nodes,
              spec.horizon.ToString().c_str());
  std::fflush(stdout);
  SimProfiler profiler;
  Cluster::Options options = spec.MakeClusterOptions(nodes, RunMode::kColocated, 1234);
  options.profiler = &profiler;
  bench::WallTimer timer;
  RunResult result = Cluster(std::move(options)).Run();
  ProbeRow row;
  row.nodes = nodes;
  row.wall_s = timer.Seconds();
  row.events_executed = result.events_executed;
  row.events_per_s = static_cast<double>(result.events_executed) / row.wall_s;
  row.fidelity_verdict = FidelityVerdictName(result.fidelity.verdict);
  if (result.fidelity.verdict != FidelityVerdict::kOk) {
    row.fidelity_verdict += ":" + result.fidelity.violated_budget;
  }
  row.counters = profiler.counters();
  std::printf("%.2fs wall, %llu events (%.0f events/s), fidelity %s\n",
              row.wall_s, static_cast<unsigned long long>(row.events_executed),
              row.events_per_s, row.fidelity_verdict.c_str());
  return row;
}

// Floor mode: the ci_gate.sh perf leg. Runs the N=256 probe and fails if
// events/s regressed more than 20% below the recorded reference — coarse
// enough to survive CI noise, tight enough to catch a real hot-path
// regression (the pre-overhaul tree was ~10x below the floor).
int RunFloor() {
  ProbeRow row = RunProbe(256);
  double floor = kFloorNodes256EventsPerS * (1.0 - kFloorAllowedRegression);
  std::printf("floor check: %.0f events/s vs floor %.0f (reference %.0f)\n",
              row.events_per_s, floor, kFloorNodes256EventsPerS);
  if (row.events_per_s < floor) {
    std::fprintf(stderr,
                 "FAIL: N=256 probe at %.0f events/s regressed >%.0f%% below "
                 "the recorded %.0f events/s reference\n",
                 row.events_per_s, kFloorAllowedRegression * 100,
                 kFloorNodes256EventsPerS);
    return 1;
  }
  return 0;
}

void WriteRow(JsonWriter* w, const ProbeRow& row, double queue_ops,
              double horizon_s) {
  w->BeginObject();
  w->Field("bench", "perf_simcore");
  w->Field("scenario", "sec8-colocation-limit probe-seda");
  w->Field("nodes", row.nodes);
  w->Field("horizon_s", horizon_s);
  w->Field("seed", 1234);
  w->Field("jobs", 1);
  w->Field("wall_s", row.wall_s);
  w->Field("events_executed", static_cast<int64_t>(row.events_executed));
  w->Field("events_per_s", row.events_per_s);
  w->Field("queue_ops_per_s", queue_ops);
  w->Field("fidelity_verdict", row.fidelity_verdict);
  w->Key("profile").BeginObject();
  w->Field("gossip_digest_bytes_sent", row.counters.gossip_digest_bytes_sent);
  w->Field("gossip_arena_bytes", row.counters.gossip_arena_bytes);
  w->Field("endpoint_store_bytes", row.counters.endpoint_store_bytes);
  w->Field("intern_table_size", row.counters.intern_table_size);
  w->Field("intern_table_bytes", row.counters.intern_table_bytes);
  w->EndObject();
  if (row.nodes == 512) {
    double speedup = kBaselineWallS > 0.0 ? kBaselineWallS / row.wall_s : 0.0;
    w->Key("baseline").BeginObject();
    w->Field("recorded",
             "2026-08-07 pre-overhaul seed, mean of 5 runs interleaved with "
             "post-overhaul runs, RelWithDebInfo, jobs=1");
    w->Field("nodes", 512);
    w->Field("wall_s", kBaselineWallS);
    w->Field("events_per_s", kBaselineEventsPerS);
    w->Field("queue_ops_per_s", kBaselineQueueOpsPerS);
    w->EndObject();
    w->Field("speedup_vs_baseline", speedup);
  }
  w->EndObject();
}

// Smoke mode: cheap, deterministic assertions on operation counts — no
// wall-clock thresholds, so it is CI-safe on arbitrarily loaded hosts.
int RunSmoke() {
  constexpr int kNodes = 32;
  BugSpec spec = ProbeSpec();
  spec.horizon = VirtualDuration::Seconds(60);
  SimProfiler profiler;
  Cluster::Options options = spec.MakeClusterOptions(kNodes, RunMode::kColocated, 1234);
  options.profiler = &profiler;
  RunResult a = Cluster(std::move(options)).Run();
  RunResult b = RunSingle(spec, kNodes, RunMode::kColocated, 1234);
  // The profiler must be a pure observer: the profiled run's JSON minus its
  // opt-in "profile" object is the unprofiled run's JSON.
  if (!a.has_profile) {
    std::fprintf(stderr, "FAIL: profiled run reported no profile\n");
    return 1;
  }
  a.has_profile = false;
  if (a.ToJson() != b.ToJson()) {
    std::fprintf(stderr, "FAIL: same seed produced different RunResult JSON\n");
    return 1;
  }
  if (a.events_executed == 0 || a.messages_delivered == 0) {
    std::fprintf(stderr, "FAIL: probe run executed no events/messages\n");
    return 1;
  }
  // The incremental-digest bound (see gossip_incremental_test.cc): entry
  // refreshes are paid for by applied updates, membership rebuilds, or the
  // builder's own heartbeat bump — never by a per-build O(N) recompute.
  const SimProfiler::Counters& c = profiler.counters();
  uint64_t rebuild_entries = c.digest_full_rebuilds * kNodes;
  if (c.digest_entries_refreshed >
      c.gossip_updates_applied + rebuild_entries + c.digest_builds) {
    std::fprintf(stderr, "FAIL: digest maintenance exceeded O(changes) bound\n");
    return 1;
  }
  if (c.payload_reuses == 0) {
    std::fprintf(stderr, "FAIL: payload pool never recycled a buffer\n");
    return 1;
  }
  std::printf(
      "smoke OK: %llu events, %llu messages, deterministic JSON; "
      "digest refreshes %llu <= updates %llu + rebuild entries %llu + builds "
      "%llu; payload reuse %llu/%llu\n",
      static_cast<unsigned long long>(a.events_executed),
      static_cast<unsigned long long>(a.messages_delivered),
      static_cast<unsigned long long>(c.digest_entries_refreshed),
      static_cast<unsigned long long>(c.gossip_updates_applied),
      static_cast<unsigned long long>(rebuild_entries),
      static_cast<unsigned long long>(c.digest_builds),
      static_cast<unsigned long long>(c.payload_reuses),
      static_cast<unsigned long long>(c.payload_allocs));
  return 0;
}

}  // namespace
}  // namespace scalecheck

int main(int argc, char** argv) {
  using namespace scalecheck;
  SetLogLevel(LogLevel::kError);
  if (FlagInArgs(argc, argv, "--smoke")) {
    return RunSmoke();
  }
  if (FlagInArgs(argc, argv, "--floor")) {
    return RunFloor();
  }

  std::vector<int> nodes_list = NodesListFromArgs(argc, argv);
  std::string out_path = OutFromArgs(argc, argv);

  std::printf("queue micro: ");
  std::fflush(stdout);
  double queue_ops = QueueOpsPerSecond();
  std::printf("%.0f ops/s\n", queue_ops);

  double horizon_s = ProbeSpec().horizon.seconds();
  JsonWriter w;
  w.BeginArray();
  for (int nodes : nodes_list) {
    ProbeRow row = RunProbe(nodes);
    if (row.nodes == 512) {
      std::printf("speedup vs pre-overhaul baseline: %.2fx\n",
                  kBaselineWallS / row.wall_s);
    }
    WriteRow(&w, row, queue_ops, horizon_s);
  }
  w.EndArray();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
