// Cluster and run configuration.

#ifndef SCALECHECK_SRC_CLUSTER_CONFIG_H_
#define SCALECHECK_SRC_CLUSTER_CONFIG_H_

#include <cstdint>

#include "src/check/check_options.h"
#include "src/common/types.h"
#include "src/gossip/failure_detector.h"
#include "src/gossip/gossiper.h"
#include "src/kv/kv_config.h"
#include "src/pil/boundary.h"
#include "src/ring/calculators.h"
#include "src/sim/fidelity_guard.h"
#include "src/sim/machine.h"

namespace scalecheck {

// How the cluster under test is deployed onto simulated machines — the axis
// Figure 3 compares.
enum class RunMode : int {
  kRealScale = 0,  // N/8 machines, 8 nodes each (the paper's real testbed)
  kColocated = 1,  // one machine hosts everything; computation runs for real
  kMemoize = 2,    // colocated + PIL recording (Figure 2-d)
  kPilReplay = 3,  // one machine; offending functions sleep (Figure 2-f)
  // Not a simulation deployment at all: the same protocol code on real
  // localhost TCP sockets and wall-clock timers (src/net/). Results carry
  // this mode so RunResult JSON distinguishes measured-for-real runs.
  kRealSockets = 4,
};

const char* RunModeName(RunMode mode);

// Where the pending-range calculation runs and how it synchronizes with
// gossip processing — the third dimension of the bug history.
enum class CalcPlacement : int {
  // C3831/C3881 era: the calculation runs inline on the gossip stage thread,
  // blocking all message processing for its duration.
  kInlineGossipStage = 0,
  // C5456 bug: separate calculation thread, but the ring-table lock is held
  // across the entire calculation; gossip applies block on the lock.
  kSeparateThreadCoarseLock = 1,
  // C5456 fix: the calculation thread clones the ring under the lock and
  // releases it before computing.
  kSeparateThreadClone = 2,
};

const char* CalcPlacementName(CalcPlacement placement);

// When a node re-runs the pending-range calculation (§2: the buggy era
// recalculated far more often than topology actually changed).
enum class RecalcTrigger : int {
  // Only when a STATUS application state changes (the minimal behaviour).
  kStatusChangeOnly = 0,
  // Any state apply (including heartbeats) for an endpoint with an in-flight
  // membership change marks the ring dirty — the historical behaviour that
  // turns one decommission into a recalculation storm.
  kAnyApplyOfPendingEndpoint = 1,
};

// §6: how the colocated deployment is engineered.
enum class ExecModel : int {
  // One OS process per node: per-process runtime overhead (JVM-like ~70 MB)
  // and context-switch degradation from thousands of threads.
  kProcessPerNode = 0,
  // The paper's scale-checkability redesign: all nodes in one process, one
  // global event queue (SEDA-like) — small per-node overhead, few threads.
  kSedaSingleProcess = 1,
};

const char* ExecModelName(ExecModel model);

struct ClusterConfig {
  // ---- Cluster under test -------------------------------------------------
  int initial_nodes = 64;
  int vnodes_per_node = 1;  // P
  int replication_factor = 3;
  CalcVersion calc_version = CalcVersion::kV1PreC3831;
  CalcPlacement calc_placement = CalcPlacement::kInlineGossipStage;
  RecalcTrigger recalc_trigger = RecalcTrigger::kAnyApplyOfPendingEndpoint;
  VirtualDuration gossip_interval = VirtualDuration::Seconds(1);
  PhiAccrualFailureDetector::Config fd;
  Gossiper::WorkCosts gossip_costs;
  WorkUnits fd_check_cost_per_endpoint = 25;
  // Gossip-stage task shedding: queued SYN/ACK/ACK2 processing older than
  // this is dropped unprocessed (Cassandra sheds stage tasks past the RPC
  // timeout — the "GossipStage dropped messages" signature of the studied
  // bugs). Zero disables shedding.
  VirtualDuration gossip_stage_timeout = VirtualDuration::Seconds(4);

  // ---- Deployment -----------------------------------------------------------
  RunMode run_mode = RunMode::kRealScale;
  MachineSpec machine_spec = MachineSpec::Nome();
  int nodes_per_machine_real = 8;  // the paper packed 8 nodes per Nome machine
  ExecModel exec_model = ExecModel::kProcessPerNode;

  // ---- Memory model (§6) ----------------------------------------------------
  int64_t process_overhead_bytes = 70LL * 1024 * 1024;  // JVM-like runtime
  int64_t seda_overhead_bytes = 5LL * 1024 * 1024;
  int64_t endpoint_state_bytes = 1200;  // per known endpoint
  int64_t partition_service_bytes = 1300 * 1024;  // §6: 1.3 MB per service
  // The §6 space-oblivious over-allocation: (N-1)*P services instead of P.
  bool space_oblivious_rebalance = false;

  // ---- Data path -------------------------------------------------------------
  // The quorum KV service on every node (kv_config.h); off by default.
  KvConfig kv;

  // ---- Fidelity guardrails (§8) ---------------------------------------------
  // Budgets for the FidelityGuard that classifies each run ok/degraded/
  // invalid. Enabled by default; all probing is on deterministic model
  // state so the verdict is part of the byte-identical JSON contract.
  FidelityBudgets guard;
  // What a replay divergence does to the run (only meaningful in kPilReplay).
  ReplayPolicy replay_policy = ReplayPolicy::kFallbackToModelled;

  // ---- Invariant checking (correctness, not fidelity) -----------------------
  // The runtime invariant checker (src/check/): probes deterministic model
  // state on a virtual-time cadence and lands an InvariantReport in
  // RunResult. On by default — the report is part of the byte-identical JSON
  // contract, like the guard verdict.
  CheckOptions check;

  // ---- Harness --------------------------------------------------------------
  uint64_t seed = 0x5eedf00d;
  // Calculators execute their real loop nest up to this predicted op count;
  // beyond it the (identical) output comes from the reference oracle and the
  // cost from the calibrated model (DESIGN.md §2).
  int64_t execute_threshold_ops = 2'000'000;

  int64_t RuntimeOverheadBytes() const {
    return exec_model == ExecModel::kProcessPerNode ? process_overhead_bytes
                                                    : seda_overhead_bytes;
  }
  double CtxSwitchPenalty() const {
    // One global queue with a fixed handler pool barely context-switches;
    // thousands of per-node daemon threads do (§6).
    return exec_model == ExecModel::kProcessPerNode ? machine_spec.ctx_switch_penalty
                                                    : machine_spec.ctx_switch_penalty / 10.0;
  }
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_CLUSTER_CONFIG_H_
