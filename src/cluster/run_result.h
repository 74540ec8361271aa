// Per-run metrics, the raw material of every table and figure.

#ifndef SCALECHECK_SRC_CLUSTER_RUN_RESULT_H_
#define SCALECHECK_SRC_CLUSTER_RUN_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/types.h"
#include "src/cluster/config.h"
#include "src/pil/boundary.h"
#include "src/pil/memo_store.h"
#include "src/sim/profiler.h"

namespace scalecheck {

struct RunResult {
  // Configuration echoes.
  RunMode mode = RunMode::kRealScale;
  int num_nodes = 0;
  int vnodes_per_node = 1;

  // ---- Figure 3 ---------------------------------------------------------
  int64_t flaps = 0;          // total alive->dead transitions cluster-wide
  int64_t flapped_pairs = 0;  // distinct (observer, subject) pairs
  // End-of-run liveness views, summed over running nodes: peers considered
  // alive vs unreachable (known, dead, not departed). A healed cluster ends
  // with unreachable_endpoints == 0; a nonzero value means somebody is still
  // islanded. Exported by both carriers.
  int64_t live_endpoints = 0;
  int64_t unreachable_endpoints = 0;

  // ---- Timing (Figure 1 / §8 table) --------------------------------------
  VirtualDuration test_duration;    // virtual time the run occupied
  VirtualDuration settle_time;      // when the workload transition completed
  bool settled = false;

  // ---- Colocation limits (§8) ---------------------------------------------
  double max_cpu_utilization = 0.0;
  int64_t peak_memory_bytes = 0;
  bool oom = false;
  int crashed_nodes = 0;
  VirtualDuration lateness_p99;
  VirtualDuration lateness_max;
  // Samples that arrived *before* their intended instant (clamped to zero in
  // the histogram; see LatenessTracker::early_count).
  int64_t lateness_early_count = 0;

  // ---- Fidelity guardrails --------------------------------------------------
  // Tri-state trustworthiness verdict with the violated budgets and their
  // first-violation virtual timestamps. Always serialized (deterministic).
  FidelityReport fidelity;
  // The host wall-clock watchdog stopped this run before the horizon; the
  // result below covers only the prefix that executed. The self-healing
  // suite executor treats such results as retry/quarantine candidates and
  // never serializes them.
  bool watchdog_fired = false;

  // ---- Invariant checking ----------------------------------------------------
  // Correctness verdict from the runtime invariant checker (src/check/):
  // violated invariants with first-violation virtual timestamps. Distinct
  // from fidelity: fidelity says "trust this run's numbers", invariants say
  // "the cluster broke". Always serialized (checked=false when the checker
  // was disabled).
  InvariantReport invariants;

  // ---- Replay drift ---------------------------------------------------------
  // Populated from PilBoundary::drift(); all-zero outside kPilReplay runs.
  struct ReplayDrift {
    uint64_t misses = 0;
    bool diverged = false;
    bool aborted = false;
    std::string first_function;  // registry name of the first diverging call
    std::string first_digest;    // input digest of that call, hex
    VirtualTime first_at;
    uint64_t first_call_index = 0;
  };
  ReplayDrift replay_drift;

  // ---- Fault injection ------------------------------------------------------
  int restarted_nodes = 0;
  int64_t fault_events_applied = 0;
  int64_t fault_events_healed = 0;
  uint64_t messages_blocked = 0;  // dropped by partitions specifically

  // ---- Offending-function behaviour (§3's 0.001–4 s observation) ----------
  int64_t calc_invocations = 0;
  int64_t calc_executed_real = 0;  // real loop nest vs modelled cost
  RunningStat calc_duration_seconds;
  RunningStat calc_lock_hold_seconds;  // ring-lock hold times (C5456)

  // ---- PIL accuracy metrics ------------------------------------------------
  PilBoundary::Stats pil;
  MemoStore::Stats memo;

  // ---- Data-path user impact (when the KV load driver runs) -----------------
  // Conservation: kv_issued == kv_ok + kv_unavailable + kv_timeout +
  // kv_inflight_at_stop, and kv_gave_up == kv_unavailable + kv_timeout — no
  // client request is silently lost, with or without retries.
  int64_t kv_issued = 0;
  int64_t kv_ok = 0;
  int64_t kv_unavailable = 0;
  int64_t kv_timeout = 0;
  int64_t kv_inflight_at_stop = 0;
  int64_t kv_retries = 0;
  int64_t kv_gave_up = 0;
  // Client latency percentiles of OK requests, from the per-node KvStats
  // histograms merged, so a repair storm's foreground impact reads off one
  // table on both carriers.
  VirtualDuration kv_latency_p50;
  VirtualDuration kv_latency_p99;
  VirtualDuration kv_latency_p999;
  // Durable-path counters (all zero unless the WAL / data path is enabled):
  // bytes made durable by group-commit syncs, hinted-handoff queue activity,
  // read-repair writebacks, and per-consistency-level op counts.
  int64_t kv_wal_bytes = 0;
  int64_t kv_hints_queued = 0;
  int64_t kv_hints_replayed = 0;
  int64_t kv_hints_expired = 0;
  int64_t kv_read_repairs = 0;
  int64_t kv_ops_one = 0;
  int64_t kv_ops_quorum = 0;
  int64_t kv_ops_all = 0;
  // Anti-entropy repair counters (zero unless kv_repair is on), summed over
  // nodes on both carriers.
  int64_t kv_repair_sessions = 0;
  int64_t kv_repair_bytes_streamed = 0;
  int64_t kv_repair_keys_fixed = 0;
  int64_t kv_repair_aborted = 0;

  // ---- Traffic / engine ----------------------------------------------------
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  // Gossip-stage tasks shed for staleness cluster-wide — the overload
  // signature that accompanies (and amplifies) flap storms.
  uint64_t stage_tasks_dropped = 0;
  uint64_t events_executed = 0;

  // ---- Profiler snapshot (opt-in) ------------------------------------------
  // Present only when the run was given a SimProfiler. The counters are
  // deterministic operation counts (no host wall-clock), and the "profile"
  // JSON object is emitted only when has_profile is set — so default output
  // stays byte-identical to profiler-less builds.
  bool has_profile = false;
  SimProfiler::Counters profile;

  // The end-of-run totals both carriers read off their protocol nodes, in id
  // order so the sums are deterministic: live and unreachable endpoints over
  // running nodes, and the KV ledger over every node with a KV service. Each
  // KvService counts its own client requests, outcomes and OK latencies, so
  // no carrier keeps a second ledger. Called once, on a result whose totals
  // are still zero.
  void FoldNodeTotals(const std::vector<NodeView>& nodes);

  std::string Summary() const;

  // Stable machine-readable form. Contains only virtual-time / simulation
  // metrics (no host wall-clock), so for a fixed (spec, scale, mode, seed)
  // the JSON is byte-identical across runs and across host-parallel
  // executors — the ExperimentSuite determinism contract.
  std::string ToJson() const;
  // Appends the same fields to an in-progress writer (suite reports).
  void WriteJson(JsonWriter* writer) const;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_CLUSTER_RUN_RESULT_H_
