// The carrier-neutral protocol node: everything a Cassandra-like node does
// that does not depend on how its events are delivered or its work charged.
//
// ProtocolNode owns the Gossiper, the phi failure detector, the ring view
// with its pending changes and ranges, the KV service, and the membership
// bookkeeping (unmonitored endpoints, seed contacts, own tokens). It speaks
// only the substrate seam (Clock, Transport, Stage), is configured by one
// ClusterConfig, and has two hosts:
//
//   Node      (src/cluster/node.h) runs each body below as a SimThread Job
//             with modelled cost, the ring SimMutex and the PIL boundary.
//   RealNode  (src/net/real_node.h) runs them inline under one mutex on
//             real sockets and wall-clock timers.
//
// Hosts call the bodies directly: the per-message and per-heartbeat paths
// make no virtual call and allocate nothing but the payloads the host hands
// in. The core calls back only for rare events, through Host. Not
// thread-safe: the host delivers one event at a time.

#ifndef SCALECHECK_SRC_CLUSTER_PROTOCOL_NODE_H_
#define SCALECHECK_SRC_CLUSTER_PROTOCOL_NODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/cluster/config.h"
#include "src/common/rng.h"
#include "src/gossip/failure_detector.h"
#include "src/gossip/gossiper.h"
#include "src/gossip/messages.h"
#include "src/kv/kv_service.h"
#include "src/ring/pending_ranges.h"
#include "src/ring/token_ring.h"
#include "src/transport/substrate.h"

namespace scalecheck {

class KvHistory;

class ProtocolNode {
 public:
  class Host {
   public:
    // The failure detector convicted `ep` at `now`.
    virtual void OnConviction(NodeId ep, VirtualTime now) = 0;
    // Convicted `ep` is alive again: a heartbeat arrived, or it `restarted`
    // (a generation bump seen through gossip).
    virtual void OnRescue(NodeId ep, bool restarted) = 0;
    // A STATUS transition of `ep` is about to be applied to the ring view.
    virtual void OnStatusTransition(NodeId ep, StatusKind new_status) = 0;
    // pending_changes() gained or lost an entry.
    virtual void OnPendingSetChanged() = 0;
    // Run (or schedule) the pending-range calculation, bracketed by
    // BeginCalc() and FinishCalc().
    virtual void RunCalculator() = 0;

   protected:
    ~Host() = default;  // hosts are never deleted through this interface
  };

  struct Deps {
    const ClusterConfig* config = nullptr;
    Transport* transport = nullptr;
    Clock* clock = nullptr;
    Host* host = nullptr;
    Stage* kv_stage = nullptr;  // required when config->kv.enabled
    // Optional KvService::Deps::charge, ::history and ::payloads.
    std::function<void(int64_t delta)> kv_charge;
    KvHistory* kv_history = nullptr;
    KvPayloadPools* kv_payloads = nullptr;
  };

  // Gossip target picks and round phases draw from `seed`; the KV seeds are
  // derived from it without consuming it.
  ProtocolNode(NodeId id, uint64_t seed, Deps wiring);
  ~ProtocolNode();
  ProtocolNode(const ProtocolNode&) = delete;
  ProtocolNode& operator=(const ProtocolNode&) = delete;

  // ---- Priming (before start) ----------------------------------------------
  // A settled cluster: `members` (self included) all NORMAL, ring populated,
  // failure-detector windows primed.
  void PrimeSettled(const std::map<NodeId, std::vector<Token>>& members);
  // The only peers known at start, NORMAL with their tokens.
  void PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members);
  // Bare contacts at generation 0 (whatever they advertise later wins).
  void PrimeContacts(const std::vector<NodeId>& contacts);
  // Fallback SYN targets for an islanded node; self is dropped.
  void SetSeedContacts(const std::vector<NodeId>& contacts);

  // Announces this node's own STATUS (generating its tokens on first use)
  // and applies it to the ring view and pending changes as a peer's would
  // be. Marks the ring dirty; the caller decides when to MaybeRecalc().
  void SetOwnStatus(StatusKind status);

  // ---- Gossip round ----------------------------------------------------------
  // A random offset into the first interval (one RNG draw), so rounds are
  // desynchronized across nodes as in real deployments.
  VirtualDuration DrawRoundPhase();
  // Calls `send_syn(peer)` for each SYN target of a round, drawing from the
  // node's RNG in a fixed order: a random live peer; with probability
  // |unreachable|/(|live|+1) a random unreachable one (no draw when there is
  // none); a seed contact when the live view is empty.
  template <typename SendSyn>
  void ForEachSynTarget(SendSyn&& send_syn) {
    const std::vector<NodeId>& live = gossiper_.LiveEndpointsView();
    if (!live.empty()) {
      send_syn(live[rng_.PickIndex(live.size())]);
    }
    NodeId unreachable = gossiper_.PickUnreachableSynTarget(&rng_);
    if (unreachable != kInvalidNode) {
      send_syn(unreachable);
    }
    if (live.empty() && !seed_contacts_.empty()) {
      send_syn(seed_contacts_[rng_.PickIndex(seed_contacts_.size())]);
    }
  }
  // Fills `syn` with this node's digests and sends it.
  void SendSyn(NodeId peer, std::shared_ptr<SynPayload> syn);
  // Convicts every monitored live peer whose phi crossed the threshold.
  void SweepFailures();
  // Heartbeat, SYNs and sweep run to completion (the simulated host runs
  // the pieces as separate Jobs).
  void RunGossipRound();

  // ---- Messages ----------------------------------------------------------------
  // Runs `msg` to completion: gossip bodies inline, data-path messages into
  // the KV service. The simulated host stages gossip messages itself and
  // hands everything else here.
  void HandleInline(const Message& msg);
  // SYN: answers with the digests we want and the states the peer lacks.
  void AnswerSyn(NodeId peer, const SynPayload& syn, std::shared_ptr<AckPayload> ack);
  // ACK and ACK2: merge the states the peer sent.
  void MergeStates(const EndpointStateMap& states) { gossiper_.ApplyStates(states); }
  // ACK, second half: ship the requested states in an ACK2 from
  // `make_ack2()` (called only when something was requested), then recalc.
  template <typename MakeAck2>
  void FinishAck(NodeId peer, const AckPayload& ack, MakeAck2&& make_ack2) {
    if (!ack.requests.empty()) {
      std::shared_ptr<Ack2Payload> ack2 = make_ack2();
      gossiper_.StatesForRequests(ack.requests, &ack2->states);
      if (!ack2->states.empty()) {
        transport_->Send(id_, peer, kGossipAck2, std::move(ack2));
      }
    }
    MaybeRecalc();
  }

  // ---- Pending-range recalculation ------------------------------------------
  // Nothing unless the ring is dirty and no run is in flight; with no
  // pending changes just clears the ranges; otherwise Host::RunCalculator.
  void MaybeRecalc();
  // Clears the dirty bit and fills `input` from the view (the live ring).
  void BeginCalc(CalcInput* input);
  void set_pending_ranges(PendingRanges ranges) { pending_ranges_ = std::move(ranges); }
  // Re-runs if the ring was dirtied during the calculation.
  void FinishCalc();

  // ---- Crash / restart ----------------------------------------------------------
  // Process death: recalc requests are ignored until Restart.
  void Crash() { crashed_ = true; }
  // A fresh process under a bumped generation: gossip, FD, ring and pending
  // state start from scratch, the durable tokens are announced NORMAL, and
  // the view is re-learned from `contacts`.
  void Restart(const std::vector<NodeId>& contacts);

  // ---- Introspection --------------------------------------------------------
  NodeId id() const { return id_; }
  Gossiper& gossiper() { return gossiper_; }
  const Gossiper& gossiper() const { return gossiper_; }
  const PhiAccrualFailureDetector& failure_detector() const { return fd_; }
  const TokenRing& ring() const { return ring_; }
  const PendingRanges& pending_ranges() const { return pending_ranges_; }
  const std::vector<PendingChange>& pending_changes() const { return pending_changes_; }
  bool recalc_inflight() const { return recalc_inflight_; }
  bool IsSettledView() const {
    return pending_changes_.empty() && !recalc_inflight_ && !ring_dirty_;
  }
  const std::vector<Token>& my_tokens() const { return my_tokens_; }
  StatusKind my_status() const { return gossiper_.LocalState().Status(); }
  KvService* kv() { return kv_.get(); }
  const KvService* kv() const { return kv_.get(); }
  bool crashed() const { return crashed_; }
  int64_t generation() const { return generation_; }
  // SYN digest-section bytes shipped (delta-varint encoded measure); divide
  // by the profiler's digest_builds for bytes/round.
  uint64_t digest_bytes_sent() const { return digest_bytes_sent_; }

 private:
  bool Unmonitored(NodeId ep) const {
    return static_cast<size_t>(ep) < unmonitored_.size() && unmonitored_[ep];
  }
  void SetUnmonitored(NodeId ep);

  // Gossiper callbacks.
  void OnStatusChange(NodeId ep, StatusKind old_status, StatusKind new_status);
  void OnHeartbeat(NodeId ep);
  void OnRestart(NodeId ep);
  void Rescue(NodeId ep, bool restarted);

  void AnnounceStatus(StatusKind status);
  // The ring-view half of a STATUS transition, shared by this node's own
  // and its peers' (BOOT/LEAVING record a pending change, NORMAL joins the
  // ring, LEFT leaves it); marks the ring dirty.
  void ApplyStatus(NodeId ep, StatusKind status, const std::vector<Token>& tokens);
  void AddNormalPeer(NodeId peer, const std::vector<Token>& tokens);
  void AddPendingChange(PendingChange change);
  void RemovePendingChange(NodeId ep);
  bool HasPendingChange(NodeId ep) const;

  const NodeId id_;
  const ClusterConfig* config_;
  Transport* transport_;
  Clock* clock_;
  Host* host_;
  Rng rng_;

  Gossiper gossiper_;
  PhiAccrualFailureDetector fd_;
  TokenRing ring_;
  std::unique_ptr<KvService> kv_;

  std::vector<Token> my_tokens_;
  std::vector<PendingChange> pending_changes_;
  PendingRanges pending_ranges_;
  bool ring_dirty_ = false;
  bool recalc_inflight_ = false;

  // Endpoints we do not failure-monitor (ourselves, LEFT nodes), as flags
  // indexed by the dense NodeId: probed once per heartbeat and once per
  // swept peer, so a hash lookup here cost millions of probes per run.
  std::vector<bool> unmonitored_;
  std::vector<NodeId> seed_contacts_;  // excludes self

  uint64_t digest_bytes_sent_ = 0;
  bool crashed_ = false;
  int64_t generation_ = 1;  // bumped on every restart
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_CLUSTER_PROTOCOL_NODE_H_
