// The top-level scale-check API (Figure 2's flow, minus the program-analysis
// steps which live in src/sfind/).
//
// A BugSpec is a reproducible scalability-bug scenario: which calculator
// generation, which threading/locking placement, how many vnodes, and which
// protocol workload triggers it. The runnable §2 catalog lives in
// src/scalecheck/bug_catalog.h (BugCatalog::Get / BugCatalog::All).
//
// BugSpec::MakeClusterOptions is the one mapping from a spec to a deployment
// of one scale in one of the paper's modes; every entry point builds its
// Cluster from it. RunSingle runs that deployment as is; callers that attach
// a memo store, trace or profiler set the field on the options
// and run Cluster(std::move(options)).Run(). For grids of runs — every
// figure and table is one, and so is the four-mode comparison Figure 3
// plots — use ExperimentSuite (experiment_suite.h), which fans the
// independent simulations out across host threads.

#ifndef SCALECHECK_SRC_SCALECHECK_SCALE_CHECK_H_
#define SCALECHECK_SRC_SCALECHECK_SCALE_CHECK_H_

#include <string>

#include "src/cluster/cluster.h"

namespace scalecheck {

struct BugSpec {
  std::string id;           // e.g. "C3831"
  std::string description;  // one line for reports
  CalcVersion calc_version = CalcVersion::kV1PreC3831;
  CalcPlacement placement = CalcPlacement::kInlineGossipStage;
  int vnodes_per_node = 1;
  WorkloadKind workload = WorkloadKind::kDecommission;
  // Scale-out size as a fraction of N (the "+25%" rescale).
  double join_fraction = 0.25;
  VirtualDuration horizon = VirtualDuration::Seconds(420);
  // Overrides the workload's membership-transition window when non-zero
  // (LEAVING->LEFT / BOOT->NORMAL); zero keeps the per-workload default.
  VirtualDuration transition_override = VirtualDuration::Zero();
  // §6 deployment engineering (the colocation-limit experiments vary these).
  ExecModel exec_model = ExecModel::kProcessPerNode;
  bool space_oblivious_rebalance = false;
  // Named fault schedule (FaultPlan::ByName) injected during every run of
  // this spec; "" / "none" disables. Part of the spec so memoize and replay
  // apply identical schedules.
  std::string fault_plan;
  // Explicit fault schedule; when non-empty it takes precedence over
  // `fault_plan`. This is how ChaosSearch candidates and --repro artifacts
  // flow through ExperimentSuite as ordinary specs.
  FaultPlan custom_faults;
  // Invariant-checker options for every run of this spec (including the
  // planted-bug flag the ChaosSearch smoke exercises).
  CheckOptions check;
  // Client load on the quorum KV data path; > 0 enables the KV service (with
  // retries, see MakeConfig) and the load driver.
  double kv_ops_per_second = 0.0;
  // The KV settings a spec may vary, by the names the knob table and
  // scalebench/ set; MakeConfig mirrors them into ClusterConfig::kv. Each
  // defaults from KvConfig, which documents it. kv_wal and kv_repair arm
  // their invariants; the planted bugs ride in `check`.
  KvConsistency kv_consistency = KvConfig{}.consistency;
  bool kv_wal = KvConfig{}.wal;
  bool kv_repair = KvConfig{}.repair;
  VirtualDuration kv_repair_interval = KvConfig{}.repair_interval;
  int64_t kv_repair_rate_bytes = KvConfig{}.repair_rate_bytes;
  int kv_repair_max_sessions = KvConfig{}.repair_max_sessions;
  // Key popularity for the KV load driver (uniform or Zipf skew).
  KvKeyDist kv_key_dist = KvKeyDist::kUniform;
  double kv_zipf_s = 1.0;
  // Fidelity-guard budgets applied to every run of this spec (deterministic;
  // part of the serialized verdict). Defaults encode §8's limits.
  FidelityBudgets guard;
  // What a replay divergence does to runs of this spec (kPilReplay only).
  ReplayPolicy replay_policy = ReplayPolicy::kFallbackToModelled;
  // Per-spec host wall-clock watchdog override for suite cells; 0 inherits
  // ExperimentSpec::cell_wall_budget_seconds.
  double wall_budget_seconds = 0.0;

  // The deployment of n initial nodes in `mode`: configuration, workload,
  // fault schedule and KV load. Hooks (memo store, output cache, trace,
  // profiler, wall budget) are left for the caller to attach.
  Cluster::Options MakeClusterOptions(int n, RunMode mode, uint64_t seed) const;
  // The parts MakeClusterOptions assembles.
  ClusterConfig MakeConfig(int n, RunMode mode, uint64_t seed) const;
  WorkloadSpec MakeWorkload(int n) const;
  // The fault schedule for a deployment of n nodes (empty when no plan).
  FaultPlan MakeFaultPlan(int n, uint64_t seed) const;
};

struct ScaleCheckResult {
  RunResult real;
  RunResult colo;
  RunResult memoize;
  RunResult replay;
  MemoStore::Stats memo;
  // Relative flap-count error vs real-scale testing (the accuracy claim).
  double replay_flap_error = 0.0;
  double colo_flap_error = 0.0;

  // Stable machine-readable form (suite exports, tooling).
  std::string ToJson() const;
};

// Runs one deployment: Cluster(spec.MakeClusterOptions(n, mode, seed)).Run().
RunResult RunSingle(const BugSpec& spec, int n, RunMode mode, uint64_t seed);

double RelativeFlapError(int64_t observed, int64_t reference);

// The CLI exit-code contract for a finished run: 4 when an invariant was
// violated, 3 when the fidelity guard says the run is not trustworthy, 0
// otherwise. Invariant violations win — a broken cluster matters more than a
// distrusted measurement of it.
int RunExitCode(const RunResult& result);

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SCALECHECK_SCALE_CHECK_H_
