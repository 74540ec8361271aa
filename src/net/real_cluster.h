// Boots N RealNodes in one process on localhost TCP and runs them to gossip
// convergence — the real-mode counterpart of src/cluster/cluster.cc's
// simulated deployment, exporting the same RunResult so real and modelled
// runs land in the same tables.
//
// What "converged" means here: every node's view reports all N members
// NORMAL and alive with a fully populated ring (AllConverged). Nodes start
// knowing only the seed subset, so convergence genuinely exercises
// SYN/ACK/ACK2 dissemination over sockets.
//
// The verdict comes from the InvariantRegistry the simulated Cluster probes
// too (src/check/invariants.h), here every check.probe_period of wall clock.

#ifndef SCALECHECK_SRC_NET_REAL_CLUSTER_H_
#define SCALECHECK_SRC_NET_REAL_CLUSTER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/check/invariants.h"
#include "src/cluster/run_result.h"
#include "src/common/interner.h"
#include "src/faults/fault_plan.h"
#include "src/gossip/flap_counter.h"
#include "src/kv/kv_history.h"
#include "src/net/real_clock.h"
#include "src/net/real_node.h"
#include "src/net/tcp_transport.h"

namespace scalecheck {

class RealCluster {
 public:
  struct Options {
    // Every node's configuration, cluster size (initial_nodes) included: the
    // same struct the simulated Cluster takes, with this carrier's defaults
    // (RealCarrierConfig()).
    ClusterConfig config = RealCarrierConfig();
    int seeds = 3;  // first `seeds` nodes are known to everyone at boot
    // Give up if the cluster has not converged after this much wall clock.
    VirtualDuration convergence_timeout = VirtualDuration::Seconds(30);
    // When config.kv.enabled: issue this many quorum writes+reads after
    // convergence, round-robin across coordinators.
    int kv_ops = 0;
    // Fault schedule replayed against the real sockets after initial
    // convergence. FaultPlan times are authored against the simulator's 1s
    // gossip round; this carrier rescales them by config.gossip_interval so a
    // "32 second partition" means the same ~32 protocol rounds on both
    // carriers. Only link-level kinds (partition, link-degrade) apply here —
    // others are skipped with a warning (no process/machine model). After
    // the last heal the cluster must reconverge within
    // config.check.partition_heal_rounds gossip rounds, or the registry
    // reports partition-heals (exit code 4 via the CLI).
    FaultPlan faults;
  };

  explicit RealCluster(const Options& options);
  ~RealCluster();
  RealCluster(const RealCluster&) = delete;
  RealCluster& operator=(const RealCluster&) = delete;

  // Boots the nodes, waits for convergence (or timeout), replays the fault
  // plan, runs the optional KV smoke (and, with repair on, dwells until the
  // replica-convergence data facet has audited it), stops everything, and
  // returns the collected result.
  // result.settled reports whether convergence was reached; settle_time is
  // the wall-clock time it took (as virtual-from-epoch nanos).
  RunResult Run();

 private:
  bool AllConverged() const;
  // Probes now, with every node's monitor held (no-op when checking is off).
  void ProbeInvariants();
  // Probes if a probe_period has passed since the last; poll loops call it.
  void PollInvariants();
  // Sleeps, polling the invariants, until the clock passes `until`.
  void DwellUntil(VirtualTime until);

  Options options_;
  EndpointInterner interner_;
  RealClock clock_;
  TcpTransport transport_;
  FlapCounter flaps_;
  std::mutex flaps_mu_;
  std::unique_ptr<InvariantRegistry> invariants_;  // null iff !config.check.enabled
  std::unique_ptr<KvHistory> kv_history_;  // null unless checking with KV on
  VirtualTime next_probe_;  // touched only by the thread running Run()
  // The registry's fault_quiet_at: the boot counts as a disturbance, so this
  // is the convergence timeout until the cluster converges, then the
  // convergence instant, then the end of the fault plan.
  VirtualTime quiet_at_;
  std::vector<std::unique_ptr<RealNode>> nodes_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_NET_REAL_CLUSTER_H_
