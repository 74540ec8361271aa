#include "src/scalecheck/scale_check.h"

#include <algorithm>
#include <cmath>

namespace scalecheck {

Cluster::Options BugSpec::MakeClusterOptions(int n, RunMode mode,
                                             uint64_t seed) const {
  Cluster::Options options;
  options.config = MakeConfig(n, mode, seed);
  options.workload = MakeWorkload(n);
  options.faults = MakeFaultPlan(n, seed);
  options.kv_ops_per_second = kv_ops_per_second;
  options.kv_key_dist = kv_key_dist;
  options.kv_zipf_s = kv_zipf_s;
  return options;
}

ClusterConfig BugSpec::MakeConfig(int n, RunMode mode, uint64_t seed) const {
  ClusterConfig cfg;
  cfg.initial_nodes = n;
  cfg.vnodes_per_node = vnodes_per_node;
  cfg.calc_version = calc_version;
  cfg.calc_placement = placement;
  cfg.run_mode = mode;
  cfg.exec_model = exec_model;
  cfg.space_oblivious_rebalance = space_oblivious_rebalance;
  cfg.guard = guard;
  cfg.replay_policy = replay_policy;
  cfg.check = check;
  cfg.seed = seed;
  if (kv_ops_per_second > 0.0) {
    cfg.kv.enabled = true;
    // Under fault injection a single attempt is the wrong client model:
    // real drivers retry. Bounded retries + deadline keep the accounting
    // conservative (every request ends OK or gave-up).
    cfg.kv.max_attempts = 4;
  }
  cfg.kv.consistency = kv_consistency;
  cfg.kv.wal = kv_wal;
  cfg.kv.repair = kv_repair;
  cfg.kv.repair_interval = kv_repair_interval;
  cfg.kv.repair_rate_bytes = kv_repair_rate_bytes;
  cfg.kv.repair_max_sessions = kv_repair_max_sessions;
  return cfg;
}

FaultPlan BugSpec::MakeFaultPlan(int n, uint64_t seed) const {
  if (!custom_faults.events.empty()) {
    return custom_faults;
  }
  return FaultPlan::ByName(fault_plan, n, seed);
}

WorkloadSpec BugSpec::MakeWorkload(int n) const {
  WorkloadSpec wl;
  wl.kind = workload;
  wl.horizon = horizon;
  switch (workload) {
    case WorkloadKind::kDecommission:
      wl.target = n / 2;
      // Decommission streams the leaver's data before it announces LEFT; at
      // hundreds of nodes that takes minutes, so the LEAVING window (during
      // which every state apply re-triggers the pending-range calculation)
      // is long.
      wl.transition = VirtualDuration::Seconds(90);
      break;
    case WorkloadKind::kScaleOut:
      wl.joining_nodes = std::max(1, static_cast<int>(n * join_fraction));
      break;
    case WorkloadKind::kRebalance:
      wl.target = n / 2;
      wl.joining_nodes = 1;
      break;
    case WorkloadKind::kFailover:
      wl.target = n / 2;
      break;
    case WorkloadKind::kBootstrapFresh:
    case WorkloadKind::kSteadyState:
      break;
  }
  if (!transition_override.IsZero()) {
    wl.transition = transition_override;
  }
  return wl;
}

int RunExitCode(const RunResult& result) {
  if (result.invariants.checked && !result.invariants.ok()) {
    return 4;
  }
  if (result.fidelity.verdict == FidelityVerdict::kInvalid) {
    return 3;
  }
  return 0;
}

double RelativeFlapError(int64_t observed, int64_t reference) {
  double ref = static_cast<double>(std::max<int64_t>(reference, 1));
  return std::abs(static_cast<double>(observed) - static_cast<double>(reference)) / ref;
}

RunResult RunSingle(const BugSpec& spec, int n, RunMode mode, uint64_t seed) {
  return Cluster(spec.MakeClusterOptions(n, mode, seed)).Run();
}

std::string ScaleCheckResult::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("real");
  real.WriteJson(&w);
  w.Key("colo");
  colo.WriteJson(&w);
  w.Key("memoize");
  memoize.WriteJson(&w);
  w.Key("replay");
  replay.WriteJson(&w);
  w.Key("memo").BeginObject();
  w.Field("records", memo.records);
  w.Field("duplicate_puts", memo.duplicate_puts);
  w.Field("determinism_violations", memo.determinism_violations);
  w.Field("lookups", memo.lookups);
  w.Field("hits", memo.hits);
  w.Field("misses", memo.misses);
  w.EndObject();
  w.Field("replay_flap_error", replay_flap_error);
  w.Field("colo_flap_error", colo_flap_error);
  w.EndObject();
  return w.str();
}

}  // namespace scalecheck
