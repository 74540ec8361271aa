#include "src/net/real_node.h"

#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace scalecheck {

ClusterConfig RealCarrierConfig() {
  ClusterConfig config;
  config.initial_nodes = 8;
  config.gossip_interval = VirtualDuration::Millis(100);
  config.vnodes_per_node = 8;
  config.seed = 1;
  config.calc_version = CalcVersion::kV3C3881Fix;
  config.recalc_trigger = RecalcTrigger::kStatusChangeOnly;
  config.kv.repair_interval = VirtualDuration::Seconds(2);
  config.kv.repair_session_timeout = VirtualDuration::Seconds(5);
  config.check.probe_period = VirtualDuration::Millis(100);
  config.check.convergence_grace =
      config.kv.repair_interval * 4 + VirtualDuration::Seconds(1);
  return config;
}

RealNode::RealNode(NodeId id, const ClusterConfig& config, Transport* transport,
                   Clock* clock, FlapCounter* flaps, std::mutex* flaps_mu,
                   KvHistory* kv_history)
    : config_(config),
      transport_(transport),
      flaps_(flaps),
      flaps_mu_(flaps_mu),
      clock_(clock, &mu_),
      calculator_(MakeCalculator(config.calc_version)),
      core_(id, HashCombine(config.seed, static_cast<uint64_t>(id)),
            ProtocolNode::Deps{
                .config = &config_,
                .transport = transport,
                .clock = &clock_,
                .host = this,
                .kv_stage = &stage_,
                .kv_charge = nullptr,
                .kv_history = kv_history,
            }) {}

RealNode::~RealNode() { Stop(); }

void RealNode::PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members,
                          const std::vector<NodeId>& contacts) {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(!started_);
  core_.SetOwnStatus(StatusKind::kNormal);
  core_.PrimeSeeds(seed_members);
  core_.SetSeedContacts(contacts);
}

void RealNode::Start() {
  transport_->RegisterNode(id(), [this](const Message& msg) { OnMessage(msg); });
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(!started_);
  started_ = true;
  // The timer goes through clock_ (the serialized view), so the round fires
  // holding mu_ — the same monitor every socket delivery enters.
  gossip_timer_ = std::make_unique<PeriodicClockTimer>(
      &clock_, config_.gossip_interval, [this] {
        if (!stopped_) {
          core_.RunGossipRound();
        }
      });
  gossip_timer_->Start(core_.DrawRoundPhase());
  if (core_.kv() != nullptr) {
    core_.kv()->Start();  // arms the anti-entropy scheduler when repair is on
  }
}

void RealNode::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    if (gossip_timer_ != nullptr) {
      gossip_timer_->Stop();
    }
    if (core_.kv() != nullptr) {
      core_.kv()->Shutdown();  // cancels repair timers before the clock goes away
    }
  }
  // Unregister outside mu_: reader threads may be blocked on mu_ delivering
  // to us, and UnregisterNode joins them.
  transport_->UnregisterNode(id());
}

void RealNode::OnMessage(const Message& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!stopped_) {
    core_.HandleInline(msg);
  }
}

void RealNode::OnConviction(NodeId ep, VirtualTime now) {
  std::lock_guard<std::mutex> flock(*flaps_mu_);
  flaps_->RecordDown(id(), ep, now);
}

void RealNode::OnRescue(NodeId ep, bool /*restarted*/) {
  std::lock_guard<std::mutex> flock(*flaps_mu_);
  flaps_->RecordUp(id(), ep, clock_.Now());
}

void RealNode::RunCalculator() {
  CalcInput input;
  core_.BeginCalc(&input);
  PendingRangeCalculator::RunOutcome outcome = calculator_->Run(
      input, /*execute_threshold_ops=*/std::numeric_limits<int64_t>::max());
  core_.set_pending_ranges(std::move(outcome.pending));
  core_.FinishCalc();
}

}  // namespace scalecheck
