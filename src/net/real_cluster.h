// Boots N RealNodes in one process on localhost TCP and runs them to gossip
// convergence — the real-mode counterpart of src/cluster/cluster.cc's
// simulated deployment, exporting the same RunResult so real and modelled
// runs land in the same tables.
//
// What "converged" means here: every node's view reports all N members
// NORMAL and alive with a fully populated ring (AllConverged). Nodes start
// knowing only the seed subset, so convergence genuinely exercises
// SYN/ACK/ACK2 dissemination over sockets.

#ifndef SCALECHECK_SRC_NET_REAL_CLUSTER_H_
#define SCALECHECK_SRC_NET_REAL_CLUSTER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/cluster/run_result.h"
#include "src/common/interner.h"
#include "src/faults/fault_plan.h"
#include "src/gossip/flap_counter.h"
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
    // others are skipped with a warning (no process/machine model).
    FaultPlan faults;
    // partition-heals bound: after the scaled plan's last heal, the cluster
    // must reconverge within this many gossip rounds or the run reports a
    // partition-heals invariant violation (exit code 4 via the CLI).
    int partition_heal_rounds = 35;
  };

  explicit RealCluster(const Options& options);
  ~RealCluster();
  RealCluster(const RealCluster&) = delete;
  RealCluster& operator=(const RealCluster&) = delete;

  // Boots the nodes, waits for convergence (or timeout), runs the optional
  // KV smoke, stops everything, and returns the collected result.
  // result.settled reports whether convergence was reached; settle_time is
  // the wall-clock time it took (as virtual-from-epoch nanos).
  RunResult Run();

 private:
  bool AllConverged() const;

  Options options_;
  EndpointInterner interner_;
  RealClock clock_;
  TcpTransport transport_;
  FlapCounter flaps_;
  std::mutex flaps_mu_;
  std::vector<std::unique_ptr<RealNode>> nodes_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_NET_REAL_CLUSTER_H_
