// The host-free scaling gate: Figure 2 steps a–b turned on the harness.
//
// Each workload runs at N = 16, 32, 64, 128, one profiled cell per scale.
// Every SimProfiler counter and RunResult count is normalised so that a
// scale-free layer stays flat as N grows:
//
//   rate      per node per simulated second (flows: events, messages, work);
//   per-op    per issued KV operation (data-path counters);
//   per-node  per node (footprints: bytes, slots, table sizes).
//
// sfind's FitPowerLaw fits value ≈ c·N^k through the four points, and the
// gate compares each k with kExpected. A k more than kTolerance above its
// pin fails, and so does a counter that gains an exponent the table does not
// pin; the whole table prints either way. A counter that reads zero at some
// scale has no exponent ("-"); a pinned one that loses it prints "gone" and
// passes. The counters are deterministic, so the verdict is the same on
// every host. The gate sees how work grows with N, not constant factors:
// those go through scripts/bench_ab.sh.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/scale_check.h"
#include "src/sfind/fitter.h"
#include "src/sim/profiler.h"

namespace scalecheck {
namespace {

constexpr int kScales[] = {16, 32, 64, 128};
constexpr uint64_t kSeed = 1234;
// Below both self-test rises (EXPERIMENTS.md, "Scaling gate"): the V1
// calculator lifts calculator seconds by 0.53, and a digest refresh that
// rescans the whole table per changed entry lifts digest refreshes by 1.0.
constexpr double kTolerance = 0.25;

enum class Norm { kRate, kPerOp, kPerNode };

struct Counter {
  const char* layer;
  const char* name;
  Norm norm;
  double (*read)(const RunResult&);
};

#define PROFILE(layer, field, norm) \
  {layer, #field, norm, [](const RunResult& r) { return static_cast<double>(r.profile.field); }}
#define RESULT(layer, field, norm) \
  {layer, #field, norm, [](const RunResult& r) { return static_cast<double>(r.field); }}

// Every SimProfiler::Counters field and every RunResult count. RunResult's
// events_executed and messages_sent equal the profiler's and are read there.
constexpr Counter kCounters[] = {
    PROFILE("sim", events_executed, Norm::kRate),
    PROFILE("sim", events_cancelled, Norm::kRate),
    PROFILE("sim", event_slot_high_water, Norm::kPerNode),
    PROFILE("net", messages_sent, Norm::kRate),
    RESULT("net", messages_delivered, Norm::kRate),
    RESULT("net", messages_blocked, Norm::kRate),
    PROFILE("gossip", gossip_syn_handled, Norm::kRate),
    PROFILE("gossip", gossip_states_applied, Norm::kRate),
    PROFILE("gossip", gossip_updates_applied, Norm::kRate),
    PROFILE("gossip", digest_builds, Norm::kRate),
    PROFILE("gossip", digest_entries_refreshed, Norm::kRate),
    PROFILE("gossip", digest_full_rebuilds, Norm::kRate),
    PROFILE("gossip", payload_reuses, Norm::kRate),
    PROFILE("gossip", payload_allocs, Norm::kRate),
    PROFILE("gossip", gossip_digest_bytes_sent, Norm::kRate),
    PROFILE("gossip", gossip_arena_bytes, Norm::kPerNode),
    PROFILE("gossip", endpoint_store_bytes, Norm::kPerNode),
    PROFILE("gossip", intern_table_size, Norm::kPerNode),
    PROFILE("gossip", intern_table_bytes, Norm::kPerNode),
    PROFILE("fd", fd_window_bytes, Norm::kPerNode),
    RESULT("gossip", stage_tasks_dropped, Norm::kRate),
    RESULT("fd", flaps, Norm::kRate),
    RESULT("fd", flapped_pairs, Norm::kRate),
    RESULT("fd", live_endpoints, Norm::kPerNode),
    RESULT("fd", unreachable_endpoints, Norm::kPerNode),
    RESULT("ring", calc_invocations, Norm::kRate),
    RESULT("ring", calc_executed_real, Norm::kRate),
    {"ring", "calc_duration_seconds", Norm::kRate,
     [](const RunResult& r) { return r.calc_duration_seconds.sum(); }},
    {"ring", "calc_lock_hold_seconds", Norm::kRate,
     [](const RunResult& r) { return r.calc_lock_hold_seconds.sum(); }},
    RESULT("pil", pil.direct_runs, Norm::kRate),
    RESULT("pil", pil.memoized_runs, Norm::kRate),
    RESULT("pil", pil.replay_hits, Norm::kRate),
    RESULT("pil", pil.replay_misses, Norm::kRate),
    RESULT("pil", memo.records, Norm::kRate),
    RESULT("pil", memo.lookups, Norm::kRate),
    RESULT("colo", peak_memory_bytes, Norm::kPerNode),
    RESULT("colo", crashed_nodes, Norm::kPerNode),
    RESULT("colo", lateness_early_count, Norm::kRate),
    RESULT("faults", restarted_nodes, Norm::kPerNode),
    RESULT("faults", fault_events_applied, Norm::kRate),
    RESULT("faults", fault_events_healed, Norm::kRate),
    RESULT("check", invariants.probes, Norm::kRate),
    RESULT("kv", kv_issued, Norm::kRate),
    RESULT("kv", kv_ok, Norm::kPerOp),
    RESULT("kv", kv_unavailable, Norm::kPerOp),
    RESULT("kv", kv_timeout, Norm::kPerOp),
    RESULT("kv", kv_inflight_at_stop, Norm::kPerOp),
    RESULT("kv", kv_retries, Norm::kPerOp),
    RESULT("kv", kv_gave_up, Norm::kPerOp),
    RESULT("kv", kv_wal_bytes, Norm::kPerOp),
    RESULT("kv", kv_hints_queued, Norm::kPerOp),
    RESULT("kv", kv_hints_replayed, Norm::kPerOp),
    RESULT("kv", kv_hints_expired, Norm::kPerOp),
    RESULT("kv", kv_read_repairs, Norm::kPerOp),
    RESULT("kv", kv_ops_one, Norm::kPerOp),
    RESULT("kv", kv_ops_quorum, Norm::kPerOp),
    RESULT("kv", kv_ops_all, Norm::kPerOp),
    RESULT("kv", kv_repair_sessions, Norm::kPerOp),
    RESULT("kv", kv_repair_bytes_streamed, Norm::kPerOp),
    RESULT("kv", kv_repair_keys_fixed, Norm::kPerOp),
    RESULT("kv", kv_repair_aborted, Norm::kPerOp),
};

#undef PROFILE
#undef RESULT

struct Expected {
  std::string_view workload;
  std::string_view counter;
  double k;
};

// The fitted exponents of the tree the gate was last re-pinned on. Re-pin a
// row in the same change that moves it, and say why in the commit.
constexpr Expected kExpected[] = {
    {"decommission", "events_executed", 0.00},
    {"decommission", "events_cancelled", 0.20},
    {"decommission", "event_slot_high_water", -0.15},
    {"decommission", "messages_sent", 0.00},
    {"decommission", "messages_delivered", 0.00},
    {"decommission", "gossip_syn_handled", 0.00},
    {"decommission", "gossip_states_applied", 0.03},
    {"decommission", "gossip_updates_applied", 0.99},
    {"decommission", "digest_builds", 0.00},
    {"decommission", "digest_entries_refreshed", 0.96},
    {"decommission", "digest_full_rebuilds", 0.00},
    {"decommission", "payload_reuses", 0.00},
    {"decommission", "payload_allocs", -0.70},
    {"decommission", "gossip_digest_bytes_sent", 0.88},
    {"decommission", "gossip_arena_bytes", 0.01},
    {"decommission", "endpoint_store_bytes", 1.00},
    {"decommission", "intern_table_size", 0.00},
    {"decommission", "intern_table_bytes", 0.00},
    {"decommission", "fd_window_bytes", 1.00},
    {"decommission", "live_endpoints", 1.05},
    {"decommission", "calc_invocations", -0.01},
    {"decommission", "calc_executed_real", -0.01},
    {"decommission", "calc_duration_seconds", 2.25},
    {"decommission", "pil.direct_runs", -0.01},
    {"decommission", "peak_memory_bytes", 0.00},
    {"decommission", "invariants.probes", -1.00},
    {"colo-probe", "events_executed", 0.01},
    {"colo-probe", "events_cancelled", 0.88},
    {"colo-probe", "event_slot_high_water", -0.11},
    {"colo-probe", "messages_sent", 0.00},
    {"colo-probe", "messages_delivered", 0.00},
    {"colo-probe", "gossip_syn_handled", 0.00},
    {"colo-probe", "gossip_states_applied", 0.72},
    {"colo-probe", "gossip_updates_applied", 0.98},
    {"colo-probe", "digest_builds", 0.00},
    {"colo-probe", "digest_entries_refreshed", 0.95},
    {"colo-probe", "digest_full_rebuilds", 0.32},
    {"colo-probe", "payload_reuses", 0.00},
    {"colo-probe", "payload_allocs", -0.71},
    {"colo-probe", "gossip_digest_bytes_sent", 0.87},
    {"colo-probe", "gossip_arena_bytes", 0.90},
    {"colo-probe", "endpoint_store_bytes", 1.00},
    {"colo-probe", "intern_table_size", 0.00},
    {"colo-probe", "intern_table_bytes", 0.01},
    {"colo-probe", "fd_window_bytes", 0.79},
    {"colo-probe", "live_endpoints", 1.01},
    {"colo-probe", "calc_invocations", 0.39},
    {"colo-probe", "calc_executed_real", 0.39},
    {"colo-probe", "calc_duration_seconds", 1.96},
    {"colo-probe", "pil.direct_runs", 0.39},
    {"colo-probe", "peak_memory_bytes", 0.01},
    {"colo-probe", "invariants.probes", -0.97},
    {"kv-steady", "events_executed", -0.76},
    {"kv-steady", "events_cancelled", -1.19},
    {"kv-steady", "event_slot_high_water", -0.37},
    {"kv-steady", "messages_sent", -0.85},
    {"kv-steady", "messages_delivered", -0.85},
    {"kv-steady", "gossip_syn_handled", 0.00},
    {"kv-steady", "gossip_updates_applied", 0.98},
    {"kv-steady", "digest_builds", 0.00},
    {"kv-steady", "digest_entries_refreshed", 0.94},
    {"kv-steady", "digest_full_rebuilds", 0.00},
    {"kv-steady", "payload_reuses", 0.00},
    {"kv-steady", "payload_allocs", -0.61},
    {"kv-steady", "gossip_digest_bytes_sent", 0.88},
    {"kv-steady", "gossip_arena_bytes", 0.00},
    {"kv-steady", "endpoint_store_bytes", 1.00},
    {"kv-steady", "intern_table_size", 0.00},
    {"kv-steady", "intern_table_bytes", 0.00},
    {"kv-steady", "fd_window_bytes", 0.94},
    {"kv-steady", "live_endpoints", 1.03},
    {"kv-steady", "peak_memory_bytes", 0.00},
    {"kv-steady", "invariants.probes", -1.00},
    {"kv-steady", "kv_issued", -1.00},
    {"kv-steady", "kv_ok", 0.00},
    {"kv-steady", "kv_inflight_at_stop", -0.11},
    {"kv-steady", "kv_wal_bytes", 0.00},
    {"kv-steady", "kv_read_repairs", 0.15},
    {"kv-steady", "kv_ops_quorum", 0.00},
    {"kv-steady", "kv_repair_sessions", 1.00},
};

struct Workload {
  const char* name;
  BugSpec spec;
  RunMode mode;
};

// C3831-fixed decommission, run as Real.
Workload Decommission() {
  return {"decommission", BugCatalog::Get("C3831-fixed"), RunMode::kRealScale};
}

// The §8 colocation probe: SEDA runtime, scale-out, 120 s horizon.
Workload ColocationProbe() {
  return {"colo-probe", ColocationProbeSpec(ExecModel::kSedaSingleProcess, false),
          RunMode::kColocated};
}

// KV steady state under QUORUM load with the WAL and repair on, 60 s.
Workload KvSteadyState() {
  BugSpec spec = BugCatalog::Get("C3831-fixed");
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(60);
  spec.kv_ops_per_second = 200;
  spec.kv_consistency = KvConsistency::kQuorum;
  spec.kv_wal = true;
  spec.kv_repair = true;
  return {"kv-steady", spec, RunMode::kRealScale};
}

double Normalise(const Counter& c, const RunResult& r) {
  double value = c.read(r);
  switch (c.norm) {
    case Norm::kRate:
      return value / (r.num_nodes * r.test_duration.seconds());
    case Norm::kPerOp:
      return r.kv_issued > 0 ? value / static_cast<double>(r.kv_issued) : 0.0;
    case Norm::kPerNode:
      return value / r.num_nodes;
  }
  return 0.0;
}

const Expected* FindExpected(std::string_view workload, std::string_view counter) {
  for (const Expected& e : kExpected) {
    if (e.workload == workload && e.counter == counter) {
      return &e;
    }
  }
  return nullptr;
}

struct Verdict {
  std::vector<std::string> flagged;  // "layer.counter" of each failing row
  std::string table;
};

// Runs `w` at every scale, fits every counter and judges it against the pins.
Verdict Judge(const Workload& w) {
  SetLogLevel(LogLevel::kError);
  std::vector<std::vector<std::pair<double, double>>> points(std::size(kCounters));
  for (int n : kScales) {
    SimProfiler profiler;
    Cluster::Options options = w.spec.MakeClusterOptions(n, w.mode, kSeed);
    options.profiler = &profiler;
    RunResult r = Cluster(std::move(options)).Run();
    for (size_t i = 0; i < std::size(kCounters); ++i) {
      points[i].emplace_back(n, Normalise(kCounters[i], r));
    }
  }
  static constexpr const char* kNormNames[] = {"rate", "per-op", "per-node"};
  Verdict verdict;
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < std::size(kCounters); ++i) {
    const Counter& c = kCounters[i];
    ComplexityFit fit = FitPowerLaw(points[i]);
    const bool fitted = fit.num_points == static_cast<int>(std::size(kScales));
    const Expected* expected = FindExpected(w.name, c.name);
    std::string status;
    if (fitted && expected == nullptr) {
      status = "NEW";
    } else if (fitted) {
      status = fit.exponent > expected->k + kTolerance ? "RISE" : "ok";
    } else if (expected != nullptr) {
      status = "gone";
    }
    if (status == "NEW" || status == "RISE") {
      verdict.flagged.push_back(StrFormat("%s.%s", c.layer, c.name));
    }
    rows.push_back({c.layer, c.name, kNormNames[static_cast<int>(c.norm)],
                    expected != nullptr ? StrFormat("%.2f", expected->k) : "-",
                    fitted ? StrFormat("%.2f", fit.exponent) : "-", status});
  }
  verdict.table = StrFormat("scaling gate: %s, N=16..128, tolerance %.2f\n%s", w.name,
                            kTolerance,
                            RenderTable({"layer", "counter", "norm", "pinned k", "k", ""},
                                        rows)
                                .c_str());
  return verdict;
}

void ExpectScalesAsPinned(const Workload& w) {
  Verdict verdict = Judge(w);
  std::printf("%s\n", verdict.table.c_str());
  EXPECT_TRUE(verdict.flagged.empty())
      << w.name << ": " << verdict.flagged.size() << " counter(s) grow faster than pinned: "
      << Join(verdict.flagged, ", ");
}

TEST(ScalingGate, DecommissionScalesAsPinned) { ExpectScalesAsPinned(Decommission()); }

TEST(ScalingGate, ColocationProbeScalesAsPinned) { ExpectScalesAsPinned(ColocationProbe()); }

TEST(ScalingGate, KvSteadyStateScalesAsPinned) { ExpectScalesAsPinned(KvSteadyState()); }

// Self-test: the pre-C3831 calculator on the same decommission must trip the
// gate on calculator work and on nothing else. C3831 runs the calculator
// inline on the gossip stage, so three more counters move with the time it
// holds that stage: the fluid CPU model cancels and re-arms its completion
// event each time the task set changes under the long calculation; the
// gossip merges it delays land in bursts, piling more dirty-digest entries
// into each node's arena between builds; and the payloads of the exchanges
// queued behind it stay out of the cluster's pools, so the pools must
// allocate more of them: at N=128 they allocate 794 payloads (1,954 when
// the SYN free list, like ACK's and ACK2's, parked at most 16 rather than
// one per node) where N<=64 needs at most 16.
TEST(ScalingGate, FlagsTheV1Calculator) {
  Workload w = Decommission();
  w.spec.calc_version = CalcVersion::kV1PreC3831;
  Verdict verdict = Judge(w);
  std::printf("%s\n", verdict.table.c_str());
  EXPECT_EQ(verdict.flagged,
            (std::vector<std::string>{"sim.events_cancelled", "gossip.payload_allocs",
                                      "gossip.gossip_arena_bytes",
                                      "ring.calc_duration_seconds"}));
}

}  // namespace
}  // namespace scalecheck
