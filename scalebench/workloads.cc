#include "scalebench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "scalebench/alloc_counter.h"
#include "src/cluster/cluster.h"
#include "src/common/thread_pool.h"
#include "src/faults/fault_search.h"
#include "src/kv/kv_service.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"
#include "src/scalecheck/scale_check.h"

namespace scalebench {

using namespace scalecheck;

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kFig3 = "fig3-c3831-n256";
constexpr const char* kColoProbe = "colo-probe-n512";
constexpr const char* kKvDurable = "kv-durable-n64";
constexpr const char* kChaosSearch = "chaos-search-n64";

// Host worker threads per workload. fig3's suite runs its cells on four
// (Real, Colo and Memoize at once, then SC+PIL). chaos-search runs its
// candidates one at a time: on a shared host each generation barrier over
// four workers waits for whichever vCPU the host slowed most, which spread
// its wall time by 30% on one seed. The single-deployment ones have one cell.
constexpr int kSuiteJobs = 4;
constexpr int kChaosJobs = 1;
// 40 candidates (five generations of 8) take about as long at one worker as
// fig3's grid takes at four.
constexpr int kChaosBudget = 40;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* ModeKey(RunMode mode) {
  switch (mode) {
    case RunMode::kRealScale:
      return "real";
    case RunMode::kColocated:
      return "colo";
    case RunMode::kMemoize:
      return "memoize";
    case RunMode::kPilReplay:
      return "replay";
    case RunMode::kRealSockets:
      break;
  }
  return "sockets";
}

// ---- Workload definitions -------------------------------------------------

BugSpec Fig3Spec() { return BugCatalog::Get("C3831"); }

// The §8 colocation-limit probe (the scenario perf_simcore tracks).
BugSpec ProbeSpec() {
  BugSpec spec;
  spec.id = "colo-probe";
  spec.description = "§8 colocation-limit probe, SEDA single process";
  spec.calc_version = CalcVersion::kV3C3881Fix;
  spec.placement = CalcPlacement::kInlineGossipStage;
  spec.workload = WorkloadKind::kScaleOut;
  spec.join_fraction = 1.0 / 32;  // +16 nodes at N=512
  spec.horizon = VirtualDuration::Seconds(120);
  spec.transition_override = VirtualDuration::Seconds(20);
  spec.exec_model = ExecModel::kSedaSingleProcess;
  return spec;
}

// The catalog's 420 s horizon is cut to 150 s so a run repeats often enough
// for a stable median; the crash (~60 s), restart (+25 s), hint replay and
// repair rounds still all happen inside it.
BugSpec KvSpec(double ops_per_second) {
  BugSpec spec = BugCatalog::Get("C3831");
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(150);
  spec.fault_plan = "crash-restart";
  spec.kv_ops_per_second = ops_per_second;
  spec.kv_consistency = KvConsistency::kQuorum;
  spec.kv_key_dist = KvKeyDist::kUniform;
  spec.kv_wal = true;
  spec.kv_repair = true;
  return spec;
}

FaultSearchConfig ChaosConfig(uint64_t seed) {
  FaultSearchConfig cfg;
  cfg.spec = BugCatalog::Get("C3831");
  cfg.nodes = 64;
  cfg.mode = RunMode::kColocated;
  cfg.seed = seed;
  cfg.search_seed = seed;
  cfg.budget = kChaosBudget;
  cfg.generation_size = 8;
  cfg.jobs = kChaosJobs;
  cfg.stop_on_first_violation = false;
  return cfg;
}

// The spec FaultSearch evaluates one plan under (its constructor clears the
// named plan and arms the checker).
BugSpec ChaosCellSpec(const FaultSearchConfig& cfg, const FaultPlan& plan) {
  BugSpec spec = cfg.spec;
  spec.fault_plan = "none";
  spec.custom_faults = plan;
  spec.check.enabled = true;
  return spec;
}

// Mirrors RunSingle's Cluster::Options, so a deployment built here is the
// one RunSingle, ExperimentSuite and FaultSearch build.
Cluster::Options ClusterOptionsFor(const BugSpec& spec, int n, RunMode mode,
                                   uint64_t seed) {
  Cluster::Options options;
  options.config = spec.MakeConfig(n, mode, seed);
  options.workload = spec.MakeWorkload(n);
  options.faults = spec.MakeFaultPlan(n, seed);
  options.kv_ops_per_second = spec.kv_ops_per_second;
  options.kv_key_dist = spec.kv_key_dist;
  options.kv_zipf_s = spec.kv_zipf_s;
  return options;
}

struct Deployment {
  BugSpec spec;
  int nodes = 0;
  RunMode mode = RunMode::kRealScale;
};

// Host seconds in the Cluster constructor, summed over `deployments`.
double BuildSeconds(const std::vector<Deployment>& deployments, uint64_t seed) {
  double total = 0.0;
  for (const Deployment& d : deployments) {
    MemoStore store;  // memoize and replay deployments attach to one
    Cluster::Options options = ClusterOptionsFor(d.spec, d.nodes, d.mode, seed);
    if (d.mode == RunMode::kMemoize || d.mode == RunMode::kPilReplay) {
      options.memo_store = &store;
    }
    Clock::time_point start = Clock::now();
    Cluster cluster(std::move(options));
    total += SecondsSince(start);
  }
  return total;
}

// ---- Output checks and deterministic counts --------------------------------

void CountRun(const std::string& prefix, const RunResult& r, Outcome* out) {
  out->counts[prefix + ".flaps"] = r.flaps;
  out->counts[prefix + ".events"] = static_cast<int64_t>(r.events_executed);
  out->counts[prefix + ".messages"] = static_cast<int64_t>(r.messages_sent);
  out->counts[prefix + ".stage_dropped"] = static_cast<int64_t>(r.stage_tasks_dropped);
  out->counts[prefix + ".calc_invocations"] = r.calc_invocations;
  out->counts[prefix + ".probes"] = static_cast<int64_t>(r.invariants.probes);
  if (r.kv_issued > 0) {
    out->counts[prefix + ".kv_issued"] = r.kv_issued;
    out->counts[prefix + ".kv_ok"] = r.kv_ok;
    out->counts[prefix + ".kv_gave_up"] = r.kv_gave_up;
    out->counts[prefix + ".kv_retries"] = r.kv_retries;
    out->counts[prefix + ".kv_wal_bytes"] = r.kv_wal_bytes;
    out->counts[prefix + ".kv_read_repairs"] = r.kv_read_repairs;
    out->counts[prefix + ".kv_hints_replayed"] = r.kv_hints_replayed;
    out->counts[prefix + ".kv_repair_sessions"] = r.kv_repair_sessions;
    out->counts[prefix + ".kv_repair_bytes"] = r.kv_repair_bytes_streamed;
  }
}

// A cell fails when the watchdog stopped it or the suite quarantined it.
void CountCell(bool stopped, Outcome* out) {
  ++out->attempted;
  if (stopped) {
    ++out->failed;
  }
}

void Fail(Outcome* out, std::string why) {
  out->check_failures.push_back(std::move(why));
}

// Figure 3: SC+PIL replay must serve its calculator calls from the memo DB,
// and memoization must not change what Colo computes. A replay may miss on a
// ring state the memoization run never reached (one miss in ~1,500 calls on
// some seeds); more than 1% misses means the memo DB no longer covers it.
void CheckFig3(const RunResult* memoize, const RunResult* colo,
               const RunResult* replay, Outcome* out) {
  if (memoize == nullptr || colo == nullptr || replay == nullptr) {
    Fail(out, "fig3: a cell produced no result");
    return;
  }
  uint64_t lookups = replay->pil.replay_hits + replay->pil.replay_misses;
  if (replay->replay_drift.aborted || lookups == 0 ||
      replay->pil.replay_misses * 100 > lookups) {
    Fail(out, StrFormat("fig3: SC+PIL replay missed the memo DB on %llu of %llu calls",
                        static_cast<unsigned long long>(replay->pil.replay_misses),
                        static_cast<unsigned long long>(lookups)));
    ++out->failed;
  }
  if (memoize->flaps != colo->flaps) {
    Fail(out, StrFormat("fig3: Memoize flaps %lld != Colo flaps %lld",
                        static_cast<long long>(memoize->flaps),
                        static_cast<long long>(colo->flaps)));
    ++out->failed;
  }
}

// KV: no client request is lost, and no kv-* invariant fired. Requests that
// give up while a replica is down are modelled behaviour, not a failed cell;
// they are reported as the per-layer failed_ratio.
void CheckKv(const RunResult& r, Outcome* out) {
  size_t failures_before = out->check_failures.size();
  if (r.kv_issued == 0) {
    Fail(out, "kv: the load driver issued no requests");
  }
  if (r.kv_issued != r.kv_ok + r.kv_unavailable + r.kv_timeout + r.kv_inflight_at_stop) {
    Fail(out, StrFormat("kv: conservation broke: issued %lld != ok %lld + "
                        "unavailable %lld + timeout %lld + inflight %lld",
                        static_cast<long long>(r.kv_issued),
                        static_cast<long long>(r.kv_ok),
                        static_cast<long long>(r.kv_unavailable),
                        static_cast<long long>(r.kv_timeout),
                        static_cast<long long>(r.kv_inflight_at_stop)));
  }
  for (const std::string& name : r.invariants.ViolatedNames()) {
    if (name.rfind("kv-", 0) == 0) {
      Fail(out, "kv: invariant " + name + " fired");
    }
  }
  if (out->check_failures.size() > failures_before) {
    ++out->failed;
  }
}

void CheckChaos(const FaultSearchConfig& cfg, const FaultSearchReport& report,
                Outcome* out) {
  // Cells: the no-fault baseline, every candidate, the minimizer's runs, and
  // the final run of the minimized plan.
  out->attempted = 1 + static_cast<int64_t>(report.candidates.size()) +
                   report.minimize_runs + (report.found_violation ? 1 : 0);
  int64_t plan_events = 0;
  int64_t candidate_flaps = 0;
  for (const FaultCandidate& c : report.candidates) {
    plan_events += static_cast<int64_t>(c.plan.events.size());
    candidate_flaps += c.flaps;
  }
  out->counts["search.candidates"] = static_cast<int64_t>(report.candidates.size());
  out->counts["search.plan_events"] = plan_events;
  out->counts["search.baseline_flaps"] = report.baseline_flaps;
  out->counts["search.candidate_flaps"] = candidate_flaps;
  out->counts["search.minimize_runs"] = report.minimize_runs;
  if (static_cast<int>(report.candidates.size()) != cfg.budget) {
    Fail(out, StrFormat("chaos: %zu candidates ran, budget %d",
                        report.candidates.size(), cfg.budget));
    ++out->failed;
  }
}

// ---- Tracing -----------------------------------------------------------------

// Spans kept in memory; cells on several threads append under the mutex.
class Tracer {
 public:
  int Open(const std::string& name, const char* layer, int parent) {
    return Add(name, layer, parent, Now(), -1, false);
  }
  void Close(int id) {
    int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  int Place(const std::string& name, const char* layer, int parent, int64_t start,
            int64_t end) {
    return Add(name, layer, parent, start, end, true);
  }
  Span Get(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_[static_cast<size_t>(id)];
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  int Add(const std::string& name, const char* layer, int parent, int64_t start,
          int64_t end, bool placed) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, layer, start, end, parent, placed});
    return static_cast<int>(spans_.size() - 1);
  }

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

struct StorageTally {
  uint64_t calls = 0;
  int64_t ns = 0;
};

// Times every data-path call into one node's storage engine. KvService
// swaps in a fresh, empty engine on crash and again on restart; the
// destructor follows that swap by installing an equally empty TimedStorage,
// so the node's later calls (including WAL replay) stay timed. `armed` is
// cleared before the cluster is torn down.
class TimedStorage final : public StorageEngine {
 public:
  TimedStorage(KvService* owner, StorageTally* tally, const bool* armed)
      : owner_(owner), tally_(tally), armed_(armed) {}
  ~TimedStorage() override {
    if (*armed_) {
      owner_->ReplaceStorageForTest(std::make_unique<TimedStorage>(owner_, tally_, armed_));
    }
  }
  TimedStorage(const TimedStorage&) = delete;
  TimedStorage& operator=(const TimedStorage&) = delete;

  WorkUnits Put(uint64_t key, std::string value, int64_t timestamp) override {
    CallTimer timer(tally_);
    return StorageEngine::Put(key, std::move(value), timestamp);
  }
  std::optional<std::string> Get(uint64_t key, WorkUnits* work) const override {
    CallTimer timer(tally_);
    return StorageEngine::Get(key, work);
  }
  int64_t TimestampOf(uint64_t key) const override {
    CallTimer timer(tally_);
    return StorageEngine::TimestampOf(key);
  }

 private:
  struct CallTimer {
    explicit CallTimer(StorageTally* t) : tally(t) {}
    CallTimer(const CallTimer&) = delete;
    CallTimer& operator=(const CallTimer&) = delete;
    ~CallTimer() {
      ++tally->calls;
      tally->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                       .count();
    }
    StorageTally* tally;
    Clock::time_point start = Clock::now();
  };

  KvService* owner_;
  StorageTally* tally_;
  const bool* armed_;
};

struct CellTrace {
  RunMode mode = RunMode::kRealScale;
  RunResult result;
  double wall_s = 0.0;
  double build_s = 0.0;
  int64_t run_ns = 0;  // SimProfiler kPhaseRun
  int64_t collect_ns = 0;
  StorageTally storage;  // summed over nodes
};

// One deployment, as RunSingle runs it, with spans around the Cluster
// constructor and Cluster::Run, the profiler's run/collect phases placed
// inside the latter, and storage time aggregated per node.
CellTrace RunTracedCell(Tracer* tracer, int parent, const BugSpec& spec, int n,
                        RunMode mode, uint64_t seed, MemoStore* memo,
                        CalcOutputCache* cache) {
  CellTrace cell;
  cell.mode = mode;
  SimProfiler profiler;
  Cluster::Options options = ClusterOptionsFor(spec, n, mode, seed);
  options.memo_store = memo;
  options.shared_output_cache = cache;
  options.profiler = &profiler;

  int cell_span = tracer->Open(std::string("cell.") + ModeKey(mode), "scalecheck", parent);
  int build_span = tracer->Open("cluster.build", "cluster", cell_span);
  auto cluster = std::make_unique<Cluster>(std::move(options));
  tracer->Close(build_span);

  bool armed = true;
  std::vector<StorageTally> tallies;
  if (cluster->node(0)->kv() != nullptr) {
    tallies.resize(cluster->total_nodes());
    for (size_t i = 0; i < cluster->total_nodes(); ++i) {
      KvService* kv = cluster->node(static_cast<NodeId>(i))->kv();
      kv->ReplaceStorageForTest(std::make_unique<TimedStorage>(kv, &tallies[i], &armed));
    }
  }
  int run_span = tracer->Open("cluster.run", "cluster", cell_span);
  cell.result = cluster->Run();
  tracer->Close(run_span);
  armed = false;
  cluster.reset();
  tracer->Close(cell_span);

  Span run = tracer->Get(run_span);
  cell.run_ns = profiler.wall_nanos(SimProfiler::kPhaseRun);
  cell.collect_ns = profiler.wall_nanos(SimProfiler::kPhaseCollect);
  int sim_span = tracer->Place("sim.run", "sim", run_span, run.start_ns,
                               run.start_ns + cell.run_ns);
  tracer->Place("cluster.collect", "cluster", run_span, run.end_ns - cell.collect_ns,
                run.end_ns);
  // Storage calls interleave with the event loop; their per-node totals are
  // laid end to end from the loop's start.
  int64_t cursor = run.start_ns;
  for (size_t i = 0; i < tallies.size(); ++i) {
    if (tallies[i].calls == 0) {
      continue;
    }
    tracer->Place(StrFormat("kv.storage.node%zu", i), "kv", sim_span, cursor,
                  cursor + tallies[i].ns);
    cursor += tallies[i].ns;
    cell.storage.calls += tallies[i].calls;
    cell.storage.ns += tallies[i].ns;
  }
  Span cell_record = tracer->Get(cell_span);
  Span build = tracer->Get(build_span);
  cell.wall_s = static_cast<double>(cell_record.end_ns - cell_record.start_ns) / 1e9;
  cell.build_s = static_cast<double>(build.end_ns - build.start_ns) / 1e9;
  return cell;
}

// Folds traced cells into the per-layer metrics. Flows sum over cells;
// footprints (slot high water, arena and endpoint-store bytes, p99) take the
// largest cell.
void AddCells(const std::vector<CellTrace>& cells, double jobs, double wall_s,
              const CalcOutputCache& cache, Outcome* out) {
  std::map<std::string, double>& m = out->layers;
  double payload_reuses = 0.0;
  double payload_allocs = 0.0;
  double cell_wall = 0.0;
  for (const CellTrace& c : cells) {
    const RunResult& r = c.result;
    const SimProfiler::Counters& p = r.profile;
    auto sum = [&m](const char* key, double v) { m[key] += v; };
    auto max = [&m](const char* key, double v) { m[key] = std::max(m[key], v); };
    m[std::string("scalecheck.cell_s.") + ModeKey(c.mode)] += c.wall_s;
    cell_wall += c.wall_s;
    sum("cluster.build_s", c.build_s);
    sum("cluster.collect_s", static_cast<double>(c.collect_ns) / 1e9);
    sum("sim.run_s", static_cast<double>(c.run_ns) / 1e9);
    sum("sim.events", static_cast<double>(p.events_executed));
    sum("sim.events_cancelled", static_cast<double>(p.events_cancelled));
    max("sim.slot_high_water", static_cast<double>(p.event_slot_high_water));
    sum("sim.messages_sent", static_cast<double>(p.messages_sent));
    sum("gossip.syn_handled", static_cast<double>(p.gossip_syn_handled));
    sum("gossip.updates_applied", static_cast<double>(p.gossip_updates_applied));
    sum("gossip.digest_entries_refreshed", static_cast<double>(p.digest_entries_refreshed));
    sum("gossip.digest_full_rebuilds", static_cast<double>(p.digest_full_rebuilds));
    sum("gossip.digest_bytes", static_cast<double>(p.gossip_digest_bytes_sent));
    max("gossip.arena_bytes", static_cast<double>(p.gossip_arena_bytes));
    max("gossip.endpoint_store_bytes", static_cast<double>(p.endpoint_store_bytes));
    payload_reuses += static_cast<double>(p.payload_reuses);
    payload_allocs += static_cast<double>(p.payload_allocs);
    sum("gossip.stage_tasks_dropped", static_cast<double>(r.stage_tasks_dropped));
    sum("gossip.flaps", static_cast<double>(r.flaps));
    sum("ring.calc_invocations", static_cast<double>(r.calc_invocations));
    sum("ring.calc_executed_real", static_cast<double>(r.calc_executed_real));
    sum("pil.replay_hits", static_cast<double>(r.pil.replay_hits));
    sum("pil.replay_misses", static_cast<double>(r.pil.replay_misses));
    sum("kv.storage_calls", static_cast<double>(c.storage.calls));
    sum("kv.storage_s", static_cast<double>(c.storage.ns) / 1e9);
    sum("kv.wal_bytes", static_cast<double>(r.kv_wal_bytes));
    sum("kv.read_repairs", static_cast<double>(r.kv_read_repairs));
    sum("kv.hints_replayed", static_cast<double>(r.kv_hints_replayed));
    sum("kv.repair_sessions", static_cast<double>(r.kv_repair_sessions));
    sum("kv.repair_bytes_streamed", static_cast<double>(r.kv_repair_bytes_streamed));
    sum("kv.retries", static_cast<double>(r.kv_retries));
    max("kv.latency_p99_ms", r.kv_latency_p99.seconds() * 1e3);
    sum("check.probes", static_cast<double>(r.invariants.probes));
    sum("check.violations", static_cast<double>(r.invariants.violations.size()));
  }
  if (m["sim.events"] > 0.0) {
    m["sim.ns_per_event"] = m["sim.run_s"] * 1e9 / m["sim.events"];
  }
  if (payload_reuses + payload_allocs > 0.0) {
    m["gossip.payload_reuse_ratio"] = payload_reuses / (payload_reuses + payload_allocs);
  }
  // Every cache miss is followed by exactly one Put, so size() counts misses.
  double hits = static_cast<double>(cache.hits());
  double misses = static_cast<double>(cache.size());
  if (hits + misses > 0.0) {
    m["ring.calc_cache_hit_ratio"] = hits / (hits + misses);
  }
  if (wall_s > 0.0) {
    m["scalecheck.busy_ratio"] = cell_wall / (jobs * wall_s);
  }
}

// ---- The four workloads --------------------------------------------------------

// The traced run returns the workload span's duration; the untraced run
// leaves wall_s to the caller's clock.
struct Run {
  std::vector<Deployment> deployments;
  double traced_wall_s = 0.0;
  // Allocation totals when the workload span closed, if work the workload
  // does not own (chaos-search's attribution replay) follows it.
  std::optional<AllocTotals> alloc_at_end;
};

Run Fig3(const Options& opt, Tracer* tracer, Outcome* out) {
  constexpr int kNodes = 256;
  BugSpec spec = Fig3Spec();
  Run run;
  for (RunMode mode : {RunMode::kRealScale, RunMode::kColocated, RunMode::kMemoize,
                       RunMode::kPilReplay}) {
    run.deployments.push_back({spec, kNodes, mode});
  }
  if (tracer == nullptr) {
    ExperimentSpec grid;
    grid.bugs = {spec};
    grid.modes = {RunMode::kRealScale, RunMode::kColocated, RunMode::kMemoize,
                  RunMode::kPilReplay};
    grid.scales = {kNodes};
    grid.seeds = {opt.seed};
    grid.jobs = kSuiteJobs;
    Clock::time_point start = Clock::now();
    SuiteReport report = ExperimentSuite(std::move(grid)).Run();
    double suite_s = SecondsSince(start);
    auto result = [&](RunMode mode) -> const RunResult* {
      const RunRecord* rec = report.Find(spec.id, mode, kNodes, opt.seed);
      return rec == nullptr || rec->quarantined ? nullptr : &rec->result;
    };
    // The suite executor's own cell timings; run.py reports these, not the
    // traced re-drive's, as the scalecheck layer.
    for (const RunRecord& rec : report.runs()) {
      CountCell(rec.quarantined || rec.result.watchdog_fired, out);
      if (!rec.quarantined) {
        CountRun(ModeKey(rec.mode), rec.result, out);
      }
      out->layers[std::string("scalecheck.cell_s.") + ModeKey(rec.mode)] += rec.wall_seconds;
    }
    out->layers["scalecheck.busy_ratio"] =
        report.total_run_wall_seconds() / (kSuiteJobs * suite_s);
    CheckFig3(result(RunMode::kMemoize), result(RunMode::kColocated),
              result(RunMode::kPilReplay), out);
    return run;
  }

  // ExperimentSpec takes no profiler, so the traced run drives the same four
  // cells itself with the suite's schedule at jobs=4: Real, Colo and Memoize
  // at once, SC+PIL once Memoize has filled the memo DB.
  CalcOutputCache cache;
  MemoStore store;
  std::vector<CellTrace> cells(4);
  int root = tracer->Open("suite.run", "scalecheck", -1);
  {
    auto cell = [&](size_t slot, RunMode mode, MemoStore* memo) {
      cells[slot] = RunTracedCell(tracer, root, spec, kNodes, mode, opt.seed, memo, &cache);
    };
    std::jthread real(cell, 0, RunMode::kRealScale, nullptr);
    std::jthread colo(cell, 1, RunMode::kColocated, nullptr);
    std::jthread memo_then_replay([&] {
      cell(2, RunMode::kMemoize, &store);
      cell(3, RunMode::kPilReplay, &store);
    });
  }
  tracer->Close(root);
  Span suite = tracer->Get(root);
  run.traced_wall_s = static_cast<double>(suite.end_ns - suite.start_ns) / 1e9;
  for (const CellTrace& c : cells) {
    CountCell(c.result.watchdog_fired, out);
    CountRun(ModeKey(c.mode), c.result, out);
  }
  CheckFig3(&cells[2].result, &cells[1].result, &cells[3].result, out);
  AddCells(cells, kSuiteJobs, run.traced_wall_s, cache, out);
  out->layers["scalecheck.cells"] = static_cast<double>(cells.size());
  out->layers["pil.memo_records"] = static_cast<double>(store.stats().records);
  out->layers["pil.memo_bytes"] = static_cast<double>(store.Serialize().size());
  out->layers["pil.flap_error_pct"] =
      100.0 * RelativeFlapError(cells[3].result.flaps, cells[0].result.flaps);
  return run;
}

// colo-probe-n512 and kv-durable-n64: one deployment, one cell.
Run SingleCell(const Options& opt, const BugSpec& spec, int nodes, RunMode mode,
               Tracer* tracer, Outcome* out) {
  Run run;
  run.deployments.push_back({spec, nodes, mode});
  RunResult result;
  if (tracer == nullptr) {
    result = RunSingle(spec, nodes, mode, opt.seed);
  } else {
    CalcOutputCache cache;
    std::vector<CellTrace> cells(1);
    cells[0] = RunTracedCell(tracer, -1, spec, nodes, mode, opt.seed, nullptr, &cache);
    run.traced_wall_s = cells[0].wall_s;
    result = cells[0].result;
    AddCells(cells, 1, run.traced_wall_s, cache, out);
    out->layers["scalecheck.cells"] = 1;
  }
  CountRun(ModeKey(mode), result, out);
  CountCell(result.watchdog_fired, out);
  if (spec.kv_ops_per_second > 0.0) {
    CheckKv(result, out);
  }
  return run;
}

Run ChaosSearch(const Options& opt, Tracer* tracer, Outcome* out) {
  FaultSearchConfig cfg = ChaosConfig(opt.seed);
  Run run;
  int search_span = tracer == nullptr ? -1 : tracer->Open("faults.search", "faults", -1);
  FaultSearchReport report = FaultSearch(cfg).Run();
  if (tracer != nullptr) {
    tracer->Close(search_span);
  }
  CheckChaos(cfg, report, out);
  run.deployments.push_back({ChaosCellSpec(cfg, FaultPlan{}), cfg.nodes, cfg.mode});
  for (const FaultCandidate& c : report.candidates) {
    run.deployments.push_back({ChaosCellSpec(cfg, c.plan), cfg.nodes, cfg.mode});
  }
  if (tracer == nullptr) {
    return run;
  }
  run.alloc_at_end = AllocSnapshot();
  Span search = tracer->Get(search_span);
  run.traced_wall_s = static_cast<double>(search.end_ns - search.start_ns) / 1e9;

  // FaultSearch takes no profiler either. Its cells are re-run here, with the
  // same specs and the same worker count, to attribute its time to layers;
  // this replay is outside the workload span and its wall time.
  CalcOutputCache cache;
  std::vector<CellTrace> cells(run.deployments.size());
  int replay_span = tracer->Open("faults.replay", "faults", -1);
  {
    ThreadPool pool(kChaosJobs);
    for (size_t i = 0; i < run.deployments.size(); ++i) {
      pool.Submit([&, i] {
        const Deployment& d = run.deployments[i];
        cells[i] = RunTracedCell(tracer, replay_span, d.spec, d.nodes, d.mode, cfg.seed,
                                 nullptr, &cache);
      });
    }
    pool.WaitIdle();
  }
  tracer->Close(replay_span);
  AddCells(cells, kChaosJobs, run.traced_wall_s, cache, out);
  out->layers["scalecheck.cells"] = static_cast<double>(out->attempted);
  out->layers["faults.candidates"] = static_cast<double>(report.candidates.size());
  out->layers["faults.plan_events"] =
      static_cast<double>(out->counts["search.plan_events"]);
  out->layers["faults.minimize_runs"] = static_cast<double>(report.minimize_runs);
  return run;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == kFig3 || name == kColoProbe || name == kKvDurable || name == kChaosSearch;
}

Outcome RunWorkload(const Options& opt) {
  Outcome out;
  std::optional<Tracer> tracer;
  if (opt.trace) {
    tracer.emplace();
  }
  Tracer* t = tracer.has_value() ? &*tracer : nullptr;

  AllocTotals alloc_before = AllocSnapshot();
  double cpu_before = CpuSeconds();
  Clock::time_point start = Clock::now();
  Run run;
  if (opt.workload == kFig3) {
    run = Fig3(opt, t, &out);
  } else if (opt.workload == kColoProbe) {
    run = SingleCell(opt, ProbeSpec(), 512, RunMode::kColocated, t, &out);
  } else if (opt.workload == kKvDurable) {
    run = SingleCell(opt, KvSpec(opt.kv_rate), 64, RunMode::kRealScale, t, &out);
  } else {
    run = ChaosSearch(opt, t, &out);
  }
  out.wall_s = t == nullptr ? SecondsSince(start) : run.traced_wall_s;
  out.cpu_s = CpuSeconds() - cpu_before;
  out.peak_rss_mb = PeakRssMb();

  if (t != nullptr) {
    AllocTotals alloc_after = run.alloc_at_end.value_or(AllocSnapshot());
    out.layers["alloc.count"] = static_cast<double>(alloc_after.count - alloc_before.count);
    out.layers["alloc.bytes"] = static_cast<double>(alloc_after.bytes - alloc_before.bytes);
    out.spans = t->Take();
    return out;
  }
  // Set-up cost, repeated for a stable median: builds of every deployment
  // until 0.3 s have passed, at least three and at most 25 (kv-durable's one
  // 64-node deployment builds in about a millisecond).
  Clock::time_point setup_start = Clock::now();
  while (out.setup_s.size() < 3 ||
         (out.setup_s.size() < 25 && SecondsSince(setup_start) < 0.3)) {
    out.setup_s.push_back(BuildSeconds(run.deployments, opt.seed));
  }
  return out;
}

}  // namespace scalebench
