// Protocol workloads (§3: "bootstrap, scale-out, decommission, rebalance,
// and failover protocols, all must be tested at scale").

#ifndef SCALECHECK_SRC_CLUSTER_WORKLOAD_H_
#define SCALECHECK_SRC_CLUSTER_WORKLOAD_H_

#include <string>

#include "src/common/types.h"

namespace scalecheck {

enum class WorkloadKind : int {
  // Nothing changes; the cluster should stay flap-free (control workload).
  kSteadyState = 0,
  // One settled node announces LEAVING, later LEFT (bug C3831's trigger).
  kDecommission = 1,
  // `joining_nodes` fresh nodes BOOT into a settled cluster (C3881, C5456).
  kScaleOut = 2,
  // The whole cluster bootstraps from scratch — the only workload that
  // exercises the C6127 fresh-ring code path.
  kBootstrapFresh = 3,
  // A node crashes without announcing anything (failover detection).
  kFailover = 4,
  // A node moves to new tokens: decommission + immediate re-join.
  kRebalance = 5,
};

const char* WorkloadKindName(WorkloadKind kind);

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kDecommission;
  // Nodes beyond the initial cluster that join (kScaleOut). A common setting
  // is initial_nodes / 4 — the "+25%" rescale.
  int joining_nodes = 0;
  // Which node leaves / crashes / moves (kDecommission/kFailover/kRebalance).
  NodeId target = 0;
  // When the perturbation starts.
  VirtualDuration start_at = VirtualDuration::Seconds(20);
  // LEAVING->LEFT and BOOT->NORMAL transition time (Cassandra's RING_DELAY
  // neighborhood).
  VirtualDuration transition = VirtualDuration::Seconds(30);
  // Start jitter between joining nodes.
  VirtualDuration stagger = VirtualDuration::Millis(500);
  // Total test window.
  VirtualDuration horizon = VirtualDuration::Seconds(420);

  std::string Describe() const;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_CLUSTER_WORKLOAD_H_
