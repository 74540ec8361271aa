// Message transport between simulated nodes.
//
// Latency: messages between nodes on the same machine take the loopback
// latency; cross-machine messages take base + exponential jitter. Delivery is
// FIFO per (sender, receiver) pair, matching TCP connection semantics.
// Bandwidth is deliberately not modelled: the paper's bottlenecks are CPU,
// memory, and context switching, and gossip messages are small.
//
// Message *processing* cost is charged by the receiving node's stage thread,
// not here; the network only delays and (optionally) drops.

#ifndef SCALECHECK_SRC_SIM_NETWORK_H_
#define SCALECHECK_SRC_SIM_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"
// Message/Payload moved below the simulator (substrate seam); re-exported
// here so the many sim-side includers keep compiling unchanged.
#include "src/transport/link_filter.h"
#include "src/transport/message.h"  // IWYU pragma: export

namespace scalecheck {

class NetworkModel : public LinkFilterHost {
 public:
  struct Config {
    VirtualDuration loopback_latency = VirtualDuration::Micros(50);
    VirtualDuration base_latency = VirtualDuration::Micros(500);
    // Mean of the exponential jitter added to cross-machine messages.
    VirtualDuration jitter_mean = VirtualDuration::Micros(200);
    double loss_probability = 0.0;
  };

  using Handler = std::function<void(const Message&)>;
  // Returns true when the two nodes share a physical machine.
  using SameMachineFn = std::function<bool(NodeId, NodeId)>;

  // Per-link fault state consulted at send time (the FaultInjector hook),
  // now the carrier-neutral type from src/transport/link_filter.h. Per-pair
  // FIFO is preserved across fault transitions by the monotone delivery
  // clamp in Send.
  using LinkFault = ::scalecheck::LinkFault;
  using LinkFilter = LinkFilterFn;

  NetworkModel(Simulator* sim, const Config& config, uint64_t seed);

  void set_same_machine_fn(SameMachineFn fn) { same_machine_ = std::move(fn); }
  void set_link_filter(LinkFilter filter) { link_filter_ = std::move(filter); }

  // LinkFilterHost: the sim carrier is single-threaded and connection-free,
  // so installing the filter is all there is to do.
  void SetLinkFilter(LinkFilterFn filter) override {
    set_link_filter(std::move(filter));
  }

  // Node ids are non-negative; sparse ids work, at the cost of table rows
  // sized to the largest id registered.
  void RegisterNode(NodeId node, Handler handler);
  // Messages to an unregistered node are dropped (crashed process). The
  // node's links keep their FIFO clamp across a re-register.
  void UnregisterNode(NodeId node);

  // Sends a message; returns its id (0 if dropped at send time, as one to or
  // from a negative id is).
  uint64_t Send(NodeId from, NodeId to, int type, std::shared_ptr<const Payload> payload);

  uint64_t messages_sent() const { return sent_; }
  uint64_t messages_delivered() const { return delivered_; }
  uint64_t messages_dropped() const { return dropped_; }
  // Subset of messages_dropped: deterministic partition drops from the link
  // filter (vs probabilistic loss / dead receivers).
  uint64_t messages_blocked() const { return blocked_; }
  uint64_t bytes_sent() const { return bytes_; }

 private:
  // Everything Send keeps per directed link: the last delivery time, the
  // per-pair FIFO clamp.
  struct Link {
    VirtualTime last_delivery =
        VirtualTime::FromNanos(std::numeric_limits<int64_t>::min());
  };

  VirtualDuration SampleLatency(NodeId from, NodeId to);
  Link& LinkOf(NodeId from, NodeId to);  // both ids non-negative

  Simulator* sim_;
  Config config_;
  Rng rng_;
  SameMachineFn same_machine_;
  LinkFilter link_filter_;
  // Indexed by NodeId; an empty handler is an unregistered node. A deque,
  // so a handler that registers a node does not move the one running.
  std::deque<Handler> handlers_;
  // links_[from][to]. A sender's row is allocated on its first send, sized
  // to the ids registered so far, and grows when a later id joins.
  std::vector<std::vector<Link>> links_;
  uint64_t next_id_ = 1;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t blocked_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SIM_NETWORK_H_
