// One in-process node of the real-socket deployment: a thin host around the
// same ProtocolNode the simulated Node hosts (src/cluster/protocol_node.h),
// configured by the same ClusterConfig.
//
// Where the sim Node spreads work across staged SimThreads to *model*
// contention, RealNode runs everything under one per-node mutex — real
// threads (socket readers, the timer thread, the driver) provide the
// concurrency, and the monitor provides the protocol-code guarantee both
// carriers share: one event at a time per node. All RealNode adds to the
// core is that monitor, the SerializedClock that routes timer callbacks
// through it, the inline RealStage the KV service runs on, the gossip timer,
// and a synchronous calculator run.
//
// Sim-only features have no counterpart here: PIL boundaries, payload pools,
// memory modelling, crash/restart. See DESIGN.md §9.

#ifndef SCALECHECK_SRC_NET_REAL_NODE_H_
#define SCALECHECK_SRC_NET_REAL_NODE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/cluster/config.h"
#include "src/cluster/protocol_node.h"
#include "src/gossip/flap_counter.h"
#include "src/net/real_clock.h"
#include "src/ring/calculators.h"
#include "src/transport/substrate.h"

namespace scalecheck {

// The real carrier's configuration defaults: ClusterConfig's values except
// 8 nodes, a 100 ms gossip interval, 8 vnodes, seed 1, calculator V3,
// recalculation on STATUS changes only, a 2 s repair interval with 5 s
// sessions, an invariant probe every 100 ms, and a 9 s convergence grace
// (four repair intervals plus 1 s): the smoke's horizon is seconds, not
// minutes. Fields that model the simulated deployment (placement, machines,
// memory, PIL) are ignored by this carrier.
ClusterConfig RealCarrierConfig();

class RealNode final : private ProtocolNode::Host {
 public:
  // `transport`, `clock` and `kv_history` (null = not recorded) outlive the
  // node; `flaps` is shared across nodes and internally synchronized by
  // `flaps_mu` (FlapCounter itself is not thread-safe). The node seeds its
  // RNG from (config.seed, id).
  RealNode(NodeId id, const ClusterConfig& config, Transport* transport,
           Clock* clock, FlapCounter* flaps, std::mutex* flaps_mu,
           KvHistory* kv_history);
  ~RealNode();
  RealNode(const RealNode&) = delete;
  RealNode& operator=(const RealNode&) = delete;

  NodeId id() const { return core_.id(); }

  // Pre-start: this node comes up NORMAL with generated tokens and knows
  // `seed_members`; `contacts` (self dropped) are the islanded fallback.
  void PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members,
                  const std::vector<NodeId>& contacts);

  // Registers with the transport and starts the periodic gossip round.
  void Start();
  // Stops gossip and leaves the transport. Safe to call twice.
  void Stop();

  // Runs `fn(core)` under the node mutex: the cluster's snapshots and
  // probes, and KV client calls, enter the same monitor as deliveries.
  template <typename Fn>
  auto WithCore(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    return fn(core_);
  }
  template <typename Fn>
  auto WithCore(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    return fn(static_cast<const ProtocolNode&>(core_));
  }

  // For a probe that must see every node at one instant, and so takes all
  // the monitors itself: read core() and started() only while holding
  // monitor().
  std::mutex& monitor() const { return mu_; }
  const ProtocolNode& core() const { return core_; }
  bool started() const { return started_; }

 private:
  void OnMessage(const Message& msg);

  // ---- ProtocolNode::Host (called with mu_ held) --------------------------
  void OnConviction(NodeId ep, VirtualTime now) override;
  void OnRescue(NodeId ep, bool restarted) override;
  void OnStatusTransition(NodeId, StatusKind) override {}
  void OnPendingSetChanged() override {}
  // Real mode computes synchronously: the calculation is real CPU on this
  // thread, which is the point — no modelled cost, just cost.
  void RunCalculator() override;

  const ClusterConfig config_;
  Transport* transport_;
  FlapCounter* flaps_;
  std::mutex* flaps_mu_;

  mutable std::mutex mu_;
  SerializedClock clock_;  // wraps the shared RealClock with mu_
  RealStage stage_;
  std::unique_ptr<PendingRangeCalculator> calculator_;
  ProtocolNode core_;
  std::unique_ptr<PeriodicClockTimer> gossip_timer_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_NET_REAL_NODE_H_
