#include "src/sim/network.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace scalecheck {

NetworkModel::NetworkModel(Simulator* sim, const Config& config, uint64_t seed)
    : sim_(sim), config_(config), rng_(seed) {
  CHECK_NOTNULL(sim);
  CHECK_GE(config.loss_probability, 0.0);
  CHECK_LE(config.loss_probability, 1.0);
}

void NetworkModel::RegisterNode(NodeId node, Handler handler) {
  CHECK(handler != nullptr);
  CHECK_GE(node, 0);
  const size_t index = static_cast<size_t>(node);
  if (index >= handlers_.size()) {
    handlers_.resize(index + 1);
    links_.resize(index + 1);
  }
  handlers_[index] = std::move(handler);
}

void NetworkModel::UnregisterNode(NodeId node) {
  if (node >= 0 && static_cast<size_t>(node) < handlers_.size()) {
    handlers_[static_cast<size_t>(node)] = nullptr;
  }
}

NetworkModel::Link& NetworkModel::LinkOf(NodeId from, NodeId to) {
  const size_t f = static_cast<size_t>(from);
  const size_t t = static_cast<size_t>(to);
  if (f >= links_.size()) {
    links_.resize(f + 1);  // a sender that never registered
  }
  std::vector<Link>& row = links_[f];
  if (t >= row.size()) {
    // Exact-size growth: rows are the table's whole footprint.
    const size_t size = std::max(t + 1, handlers_.size());
    row.reserve(size);
    row.resize(size);
  }
  return row[t];
}

VirtualDuration NetworkModel::SampleLatency(NodeId from, NodeId to) {
  bool local = same_machine_ && same_machine_(from, to);
  if (local) {
    return config_.loopback_latency;
  }
  double jitter_s = rng_.Exponential(config_.jitter_mean.seconds());
  return config_.base_latency + VirtualDuration::FromSecondsF(jitter_s);
}

uint64_t NetworkModel::Send(NodeId from, NodeId to, int type,
                            std::shared_ptr<const Payload> payload) {
  CHECK(payload != nullptr);
  ++sent_;
  bytes_ += payload->SizeBytes();
  LinkFault fault;
  if (link_filter_) {
    fault = link_filter_(from, to);
  }
  if (fault.blocked) {
    // Hard partition: deterministic drop, no RNG consumed (so fault-free
    // links see an identical random stream whether or not a partition is
    // active elsewhere).
    ++dropped_;
    ++blocked_;
    return 0;
  }
  double loss = std::min(1.0, config_.loss_probability + fault.extra_loss);
  if (loss > 0.0 && rng_.Bernoulli(loss)) {
    ++dropped_;
    return 0;
  }
  if (from < 0 || to < 0) {
    ++dropped_;  // no such node (kInvalidNode): nothing can receive it
    return 0;
  }
  Link& link = LinkOf(from, to);
  Message msg;
  msg.id = next_id_++;
  msg.from = from;
  msg.to = to;
  msg.type = type;
  msg.payload = std::move(payload);
  msg.sent_at = sim_->Now();

  VirtualTime deliver_at = sim_->Now() + SampleLatency(from, to) + fault.extra_latency;
  // FIFO per sender->receiver pair: never deliver before an earlier message
  // on the same pair.
  if (deliver_at <= link.last_delivery) {
    deliver_at = link.last_delivery + VirtualDuration::Nanos(1);
  }
  link.last_delivery = deliver_at;

  sim_->ScheduleAt(deliver_at, [this, msg = std::move(msg)] {
    const size_t to_index = static_cast<size_t>(msg.to);
    if (to_index >= handlers_.size() || !handlers_[to_index]) {
      ++dropped_;  // receiver crashed or decommissioned
      return;
    }
    ++delivered_;
    handlers_[to_index](msg);
  });
  return msg.id;
}

}  // namespace scalecheck
