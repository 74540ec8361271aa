#include "src/cluster/protocol_node.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/kv/anti_entropy.h"

namespace scalecheck {

ProtocolNode::ProtocolNode(NodeId id, uint64_t seed, Deps wiring)
    : id_(id),
      config_(wiring.config),
      transport_(wiring.transport),
      clock_(wiring.clock),
      host_(wiring.host),
      rng_(seed),
      gossiper_(id, /*generation=*/1,
                Gossiper::Callbacks{
                    [this](NodeId ep, StatusKind o, StatusKind n) { OnStatusChange(ep, o, n); },
                    [this](NodeId ep) { OnHeartbeat(ep); },
                    [this](NodeId ep) { OnRestart(ep); },
                }),
      fd_(wiring.config->fd) {
  CHECK_NOTNULL(transport_);
  CHECK_NOTNULL(clock_);
  CHECK_NOTNULL(host_);
  SetUnmonitored(id_);
  if (config_->kv.enabled) {
    CHECK_NOTNULL(wiring.kv_stage);
    kv_ = std::make_unique<KvService>(KvService::Deps{
        .clock = clock_,
        .transport = transport_,
        .stage = wiring.kv_stage,
        .ring = &ring_,
        .gossiper = &gossiper_,
        .self = id_,
        .replication_factor = config_->replication_factor,
        .config = config_->kv,
        .seed = seed,
        .plant_ack_before_sync = config_->check.plant_kv_ack_before_sync,
        .plant_repair_storm = config_->check.plant_repair_storm,
        .charge = std::move(wiring.kv_charge),
        .history = wiring.kv_history,
        .payloads = wiring.kv_payloads,
    });
  }
}

ProtocolNode::~ProtocolNode() = default;

// ---- Priming -----------------------------------------------------------------

void ProtocolNode::PrimeSettled(const std::map<NodeId, std::vector<Token>>& members) {
  auto self_it = members.find(id_);
  CHECK(self_it != members.end()) << "settled node" << id_ << "not in member map";
  my_tokens_ = self_it->second;
  AnnounceStatus(StatusKind::kNormal);
  for (const auto& [peer, tokens] : members) {
    ring_.AddNode(peer, tokens);
    if (peer == id_) {
      continue;
    }
    AddNormalPeer(peer, tokens);
    // Prime the failure detector so phi is meaningful from t=0.
    fd_.Report(peer, clock_->Now());
  }
}

void ProtocolNode::PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members) {
  for (const auto& [peer, tokens] : seed_members) {
    if (peer == id_) {
      continue;
    }
    AddNormalPeer(peer, tokens);
    // A fresh joiner has an established view of the seeds only.
    if (!ring_.HasNode(peer)) {
      ring_.AddNode(peer, tokens);
    }
  }
}

void ProtocolNode::AddNormalPeer(NodeId peer, const std::vector<Token>& tokens) {
  EndpointState state(/*generation=*/1);
  VersionedValue status;
  status.version = 1;
  status.status = StatusKind::kNormal;
  status.tokens = tokens;
  state.Set(ApplicationStateKey::kStatus, status);
  gossiper_.AddKnownEndpoint(peer, state);
}

void ProtocolNode::PrimeContacts(const std::vector<NodeId>& contacts) {
  for (NodeId peer : contacts) {
    if (peer != id_) {
      gossiper_.AddKnownEndpoint(peer, EndpointState(/*generation=*/0));
    }
  }
}

void ProtocolNode::SetSeedContacts(const std::vector<NodeId>& contacts) {
  seed_contacts_.clear();
  for (NodeId peer : contacts) {
    if (peer != id_) {
      seed_contacts_.push_back(peer);
    }
  }
}

// ---- Own status ------------------------------------------------------------------

void ProtocolNode::AnnounceStatus(StatusKind status) {
  VersionedValue value;
  value.status = status;
  value.tokens = my_tokens_;
  gossiper_.SetLocalState(ApplicationStateKey::kStatus, value);
}

void ProtocolNode::SetOwnStatus(StatusKind status) {
  if (my_tokens_.empty()) {
    my_tokens_ = GenerateTokens(id_, config_->vnodes_per_node, config_->seed);
  }
  AnnounceStatus(status);
  ApplyStatus(id_, status, my_tokens_);
}

void ProtocolNode::ApplyStatus(NodeId ep, StatusKind status, const std::vector<Token>& tokens) {
  switch (status) {
    case StatusKind::kBootstrapping:
      AddPendingChange(PendingChange{ep, ChangeKind::kJoining, tokens});
      break;
    case StatusKind::kLeaving:
      AddPendingChange(PendingChange{ep, ChangeKind::kLeaving, {}});
      break;
    case StatusKind::kNormal:
      if (!ring_.HasNode(ep)) {
        ring_.AddNode(ep, tokens);
      }
      RemovePendingChange(ep);
      break;
    case StatusKind::kLeft:
    case StatusKind::kRemoved:
      if (ring_.HasNode(ep)) {
        ring_.RemoveNode(ep);
      }
      RemovePendingChange(ep);
      break;
    case StatusKind::kUnknown:
      return;
  }
  ring_dirty_ = true;
}

// ---- Gossip round -----------------------------------------------------------------

void ProtocolNode::SendSyn(NodeId peer, std::shared_ptr<SynPayload> syn) {
  gossiper_.CopySynDigests(&syn->digests);
  digest_bytes_sent_ += syn->SizeBytes();
  transport_->Send(id_, peer, kGossipSyn, std::move(syn));
}

void ProtocolNode::SweepFailures() {
  VirtualTime now = clock_->Now();
  // Iterating the cached live view is equivalent to scanning all endpoints
  // and skipping the dead: alive ⊆ known. MarkDead inside the loop only
  // defers a rebuild, it does not move the vector.
  for (NodeId ep : gossiper_.LiveEndpointsView()) {
    if (Unmonitored(ep)) {
      continue;
    }
    if (fd_.Phi(ep, now) > fd_.config().threshold) {
      gossiper_.MarkDead(ep);
      host_->OnConviction(ep, now);
    }
  }
}

VirtualDuration ProtocolNode::DrawRoundPhase() {
  return VirtualDuration::Nanos(static_cast<int64_t>(
      rng_.UniformDouble() * static_cast<double>(config_->gossip_interval.nanos())));
}

void ProtocolNode::RunGossipRound() {
  gossiper_.IncrementHeartbeat();
  ForEachSynTarget(
      [this](NodeId peer) { SendSyn(peer, std::make_shared<SynPayload>()); });
  SweepFailures();
}

// ---- Message bodies ----------------------------------------------------------------

void ProtocolNode::HandleInline(const Message& msg) {
  switch (msg.type) {
    case kGossipSyn:
      AnswerSyn(msg.from, static_cast<const SynPayload&>(*msg.payload),
                std::make_shared<AckPayload>());
      break;
    case kGossipAck: {
      const auto& ack = static_cast<const AckPayload&>(*msg.payload);
      MergeStates(ack.states);
      FinishAck(msg.from, ack, [] { return std::make_shared<Ack2Payload>(); });
      break;
    }
    case kGossipAck2:
      MergeStates(static_cast<const Ack2Payload&>(*msg.payload).states);
      MaybeRecalc();
      break;
    case kKvWriteReq:
    case kKvWriteResp:
    case kKvReadReq:
    case kKvReadResp:
    case kKvRepairHashReq:
    case kKvRepairHashResp:
    case kKvRepairStreamWrite:
      if (kv_ != nullptr) {
        kv_->HandleMessage(msg);
      }
      break;
    default:
      SC_LOG(Warning) << "node " << id_ << ": unknown message type " << msg.type;
  }
}

void ProtocolNode::AnswerSyn(NodeId peer, const SynPayload& syn,
                             std::shared_ptr<AckPayload> ack) {
  gossiper_.HandleSyn(syn.digests, &ack->requests, &ack->states);
  transport_->Send(id_, peer, kGossipAck, std::move(ack));
}

// ---- Gossiper callbacks -------------------------------------------------------------

void ProtocolNode::OnStatusChange(NodeId ep, StatusKind old_status, StatusKind new_status) {
  host_->OnStatusTransition(ep, new_status);
  const EndpointState* state = gossiper_.StateOf(ep);
  CHECK_NOTNULL(state);
  std::vector<Token> tokens = state->Tokens();
  const bool departed =
      new_status == StatusKind::kLeft || new_status == StatusKind::kRemoved;
  if (departed && config_->check.plant_left_join_bug &&
      old_status == StatusKind::kUnknown && !ring_.HasNode(ep) && !tokens.empty()) {
    // Planted recovery bug (CheckOptions::plant_left_join_bug): a view
    // meeting a tombstoned endpoint for the first time — e.g. a process that
    // restarted after a peer finished decommissioning — mishandles the LEFT
    // state as a join and claims the departed node's tokens back into its
    // ring. The zombie-endpoint invariant exists to catch exactly this.
    ApplyStatus(ep, StatusKind::kNormal, tokens);
    return;
  }
  ApplyStatus(ep, new_status, tokens);
  if (departed) {
    // A properly departed node is no longer monitored; its silence is not a
    // failure and must not produce flaps.
    SetUnmonitored(ep);
    fd_.Forget(ep);
    gossiper_.MarkDead(ep);
  }
}

void ProtocolNode::SetUnmonitored(NodeId ep) {
  CHECK_GE(ep, 0);
  if (static_cast<size_t>(ep) >= unmonitored_.size()) {
    unmonitored_.resize(static_cast<size_t>(ep) + 1);
  }
  unmonitored_[ep] = true;
}

void ProtocolNode::OnHeartbeat(NodeId ep) {
  if (Unmonitored(ep)) {
    return;
  }
  fd_.Report(ep, clock_->Now());
  if (!gossiper_.IsAlive(ep)) {
    Rescue(ep, /*restarted=*/false);
  }
  if (config_->recalc_trigger == RecalcTrigger::kAnyApplyOfPendingEndpoint &&
      HasPendingChange(ep)) {
    ring_dirty_ = true;
  }
}

void ProtocolNode::OnRestart(NodeId ep) {
  // Treat a restarted peer as freshly alive.
  if (!gossiper_.IsAlive(ep)) {
    Rescue(ep, /*restarted=*/true);
  }
}

void ProtocolNode::Rescue(NodeId ep, bool restarted) {
  gossiper_.MarkAlive(ep);
  host_->OnRescue(ep, restarted);
  if (kv_ != nullptr) {
    // The replica is reachable again: deliver (or expire) whatever writes we
    // hinted for it while it was down.
    kv_->OnReplicaAlive(ep);
  }
}

// ---- Pending changes and recalculation ------------------------------------------------

void ProtocolNode::AddPendingChange(PendingChange change) {
  for (const PendingChange& existing : pending_changes_) {
    if (existing.node == change.node && existing.kind == change.kind) {
      return;
    }
  }
  pending_changes_.push_back(std::move(change));
  host_->OnPendingSetChanged();
}

void ProtocolNode::RemovePendingChange(NodeId ep) {
  if (std::erase_if(pending_changes_, [ep](const PendingChange& c) { return c.node == ep; }) >
      0) {
    host_->OnPendingSetChanged();
  }
}

bool ProtocolNode::HasPendingChange(NodeId ep) const {
  return std::any_of(pending_changes_.begin(), pending_changes_.end(),
                     [ep](const PendingChange& c) { return c.node == ep; });
}

void ProtocolNode::MaybeRecalc() {
  if (crashed_ || !ring_dirty_ || recalc_inflight_) {
    return;
  }
  if (pending_changes_.empty()) {
    // Nothing in flight: the recalculation is trivial; skip it (the cheap
    // path real code takes too).
    ring_dirty_ = false;
    pending_ranges_ = PendingRanges();
    return;
  }
  recalc_inflight_ = true;
  host_->RunCalculator();
}

void ProtocolNode::BeginCalc(CalcInput* input) {
  ring_dirty_ = false;
  input->ring = &ring_;
  input->changes = pending_changes_;
  input->rf = config_->replication_factor;
}

void ProtocolNode::FinishCalc() {
  recalc_inflight_ = false;
  MaybeRecalc();  // re-run if dirtied during the calculation
}

// ---- Crash / restart ------------------------------------------------------------------

void ProtocolNode::Restart(const std::vector<NodeId>& contacts) {
  CHECK(crashed_) << "Restart of a live node " << id_;
  crashed_ = false;
  ++generation_;
  gossiper_.ResetForRestart(generation_);
  fd_ = PhiAccrualFailureDetector(config_->fd);
  ring_ = TokenRing();
  pending_changes_.clear();
  pending_ranges_ = PendingRanges();
  ring_dirty_ = false;
  recalc_inflight_ = false;
  unmonitored_.clear();
  SetUnmonitored(id_);
  // Peers replace our stale state wholesale on seeing the new generation.
  PrimeContacts(contacts);
  SetOwnStatus(StatusKind::kNormal);
  MaybeRecalc();  // nothing pending: just clears the dirty bit
}

}  // namespace scalecheck
