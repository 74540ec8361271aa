// The gossip protocol state machine (Cassandra-style anti-entropy).
//
// Gossiper is deliberately transport- and thread-free: it consumes digests
// and states and produces digests and states, so it can be unit-tested
// exhaustively. ProtocolNode (src/cluster/protocol_node.h) connects it to the
// Transport seam on both carriers; its simulated host, Node, charges the CPU
// work this class *estimates* (instrumented per-item costs) to the receiving
// stage thread.
//
// The protocol outputs are incremental: the SYN digest list is a cached
// vector whose entries are refreshed only for endpoints whose state actually
// changed since the last build (a version bump dirties exactly one entry;
// membership changes trigger a full rebuild), and the live-endpoint view is
// a cached sorted vector invalidated by liveness flips. A steady-state round
// therefore costs O(changed endpoint states), not O(N); the digest_* counters
// below expose that invariant to tests and to SimProfiler.
//
// Memory layout (the N=2048 overhaul): endpoint states live in an
// EndpointStateStore — two parallel sorted vectors (ids, states) instead of
// a std::map — and the digest cache, dirty list, and liveness bitmap are
// index-aligned with that table, so the SYN merge-walk and the digest
// refresh are linear scans with no per-endpoint tree walks. The digest
// scratch is arena-backed (src/common/arena.h); the simulated Node charges
// the arena's growth to MemoryModel so FidelityGuard sees the real footprint.

#ifndef SCALECHECK_SRC_GOSSIP_GOSSIPER_H_
#define SCALECHECK_SRC_GOSSIP_GOSSIPER_H_

#include <functional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/types.h"
#include "src/gossip/endpoint_state.h"
#include "src/gossip/endpoint_store.h"
#include "src/gossip/messages.h"

namespace scalecheck {

class Rng;

class Gossiper {
 public:
  struct Callbacks {
    // STATUS application state changed for an endpoint (BOOT/LEAVING/LEFT...).
    std::function<void(NodeId ep, StatusKind old_status, StatusKind new_status)>
        on_status_change = nullptr;
    // Heartbeat progressed for a live-monitored endpoint (drives the FD).
    std::function<void(NodeId ep)> on_heartbeat = nullptr;
    // Endpoint rebooted (generation bump).
    std::function<void(NodeId ep)> on_restart = nullptr;
  };

  // Per-item CPU costs (work units) used by the Estimate* functions. These
  // are the O(N) per-round serialization costs that §4's footnote attributes
  // 53% of scalability bugs to; they are charged for real.
  struct WorkCosts {
    WorkUnits per_digest = 60;
    WorkUnits per_state = 400;
    WorkUnits per_token = 4;
    WorkUnits base = 500;
  };

  Gossiper(NodeId self, int64_t generation, Callbacks callbacks);

  NodeId self() const { return self_; }

  // ---- Local state management -------------------------------------------

  // Bumps the local heartbeat version (start of every gossip round).
  void IncrementHeartbeat();

  // Sets a local application state at the next version.
  void SetLocalState(ApplicationStateKey key, VersionedValue value);

  const EndpointState& LocalState() const;

  // Seeds knowledge of a peer (cluster bootstrap or handshake).
  void AddKnownEndpoint(NodeId ep, const EndpointState& state);
  void RemoveEndpoint(NodeId ep);

  // Crash-restart lifecycle: forgets every peer and re-initializes the local
  // endpoint state under a bumped `generation`. Peers that see the higher
  // generation replace our old state wholesale (their on_restart fires); we
  // re-learn the cluster from whatever contacts are seeded afterwards.
  void ResetForRestart(int64_t generation);

  const EndpointStateStore& endpoints() const { return endpoints_; }
  const EndpointState* StateOf(NodeId ep) const;

  // ---- Liveness view ------------------------------------------------------

  void MarkAlive(NodeId ep);
  void MarkDead(NodeId ep);
  // Inline: liveness is consulted per (node, peer) pair per round.
  bool IsAlive(NodeId ep) const {
    size_t index = endpoints_.IndexOf(ep);
    return index != EndpointStateStore::kNotFound && alive_[index] != 0;
  }
  std::vector<NodeId> LiveEndpoints() const;  // excludes self
  std::vector<NodeId> AllEndpoints() const;   // excludes self

  // Cached sorted live-endpoint list (excludes self). The reference stays
  // valid while iterating even if the caller flips liveness (rebuilds are
  // deferred to the next call), but not across other Gossiper mutations.
  const std::vector<NodeId>& LiveEndpointsView() const;

  // Cached sorted unreachable-endpoint list: endpoints we know but currently
  // consider dead, excluding self and endpoints whose STATUS says they
  // departed on purpose (LEFT/REMOVED). This is the gossip-to-unreachable
  // target set; same reference-validity contract as LiveEndpointsView.
  const std::vector<NodeId>& UnreachableEndpointsView() const;
  std::vector<NodeId> UnreachableEndpoints() const;

  // Cassandra-style gossip-to-unreachable draw (maybeGossipToUnreachable):
  // with probability |unreachable| / (|live| + 1), returns a uniformly random
  // unreachable endpoint to SYN this round; kInvalidNode otherwise. Consumes
  // rng draws ONLY when the unreachable set is non-empty, so runs that never
  // convict anyone keep their RNG streams byte-identical.
  NodeId PickUnreachableSynTarget(Rng* rng) const;

  // ---- Protocol steps -----------------------------------------------------

  // Builds the SYN digest list (shuffled order does not matter; we keep
  // deterministic order — sorted by endpoint id).
  std::vector<GossipDigest> MakeSynDigests() const;

  // Same digest list copied into *out, reusing its capacity (for pooled
  // payload buffers).
  void CopySynDigests(std::vector<GossipDigest>* out) const;

  // Receiver side of SYN: splits into (digests we want, states they want).
  void HandleSyn(const std::vector<GossipDigest>& digests,
                 std::vector<GossipDigest>* out_requests,
                 EndpointStateMap* out_send);

  // Builds the states requested by a digest list (ACK/ACK2 construction).
  // The out-param form reuses the pooled payload map's capacity.
  void StatesForRequests(const std::vector<GossipDigest>& requests,
                         EndpointStateMap* out) const;
  EndpointStateMap StatesForRequests(const std::vector<GossipDigest>& requests) const;

  // Applies remote states (ACK/ACK2 receipt), firing callbacks.
  void ApplyStates(const EndpointStateMap& states);

  // ---- Work estimation ----------------------------------------------------

  static WorkUnits EstimateSynWork(const SynPayload& syn, const WorkCosts& costs);
  static WorkUnits EstimateAckWork(const AckPayload& ack, const WorkCosts& costs);
  static WorkUnits EstimateAck2Work(const Ack2Payload& ack2, const WorkCosts& costs);
  WorkUnits EstimateRoundWork(const WorkCosts& costs) const;

  // ---- Introspection ------------------------------------------------------

  uint64_t states_applied() const { return states_applied_; }
  uint64_t syn_handled() const { return syn_handled_; }
  // Endpoint-state mutations accepted from remotes (new endpoints, wholesale
  // generation replacements, heartbeat advances, app-state sets). This is the
  // "changes" in the O(changes) digest-maintenance bound.
  uint64_t updates_applied() const { return updates_applied_; }
  // Digest-cache maintenance counters: builds served, individual entries
  // recomputed, and full O(N) rebuilds (membership changes only).
  uint64_t digest_builds() const { return digest_builds_; }
  uint64_t digest_entries_refreshed() const { return digest_entries_refreshed_; }
  uint64_t digest_full_rebuilds() const { return digest_full_rebuilds_; }

  // Arena backing the digest scratch: the owner (Node) hooks growth into
  // MemoryModel and reads the reserved footprint for the profiler.
  Arena& scratch_arena() { return arena_; }
  const Arena& scratch_arena() const { return arena_; }
  // Heap footprint of the endpoint table itself (profiler accounting).
  size_t endpoint_store_bytes() const { return endpoints_.ApproxBytes(); }

 private:
  void ApplyOne(NodeId ep, const EndpointState& remote);
  // Copies into *delta only the content of `state` newer than `after_version`
  // (the heartbeat always rides along).
  static void BuildDeltaInto(const EndpointState& state, int64_t after_version,
                             EndpointState* delta);

  int64_t NextVersion() { return ++version_counter_; }

  // Inserts a brand-new endpoint at its sorted position, keeping alive_ and
  // self_index_ aligned. Returns the insertion index.
  size_t InsertEndpoint(NodeId ep, const EndpointState& state, bool alive);

  // Marks one endpoint's cached digest entry stale (version bump). Indices
  // are stable between structural mutations, and every structural mutation
  // clears the dirty list, so a queued index cannot go stale.
  void MarkDigestDirty(size_t index);
  // Membership changed: the whole cache must be rebuilt.
  void MarkDigestStructureDirty();
  // Brings digest_cache_ up to date (refreshes only dirty entries).
  void RefreshDigestCache() const;
  // Fallback for digest lists that are not strictly sorted by endpoint.
  void HandleSynGeneric(const std::vector<GossipDigest>& digests,
                        std::vector<GossipDigest>* out_requests,
                        EndpointStateMap* out_send);

  NodeId self_;
  Callbacks callbacks_;
  int64_t version_counter_ = 0;

  // Declared before the arena-backed caches below (construction order).
  Arena arena_;

  EndpointStateStore endpoints_;  // includes self_
  size_t self_index_ = 0;         // index of self_ in endpoints_
  // Liveness bitmap, index-aligned with endpoints_ (self slot unused).
  std::vector<uint8_t> alive_;

  uint64_t states_applied_ = 0;
  uint64_t syn_handled_ = 0;
  uint64_t updates_applied_ = 0;

  // SYN digest cache, index-aligned with endpoints_; arena-backed scratch.
  mutable ArenaVector<GossipDigest> digest_cache_;
  mutable ArenaVector<uint32_t> digest_dirty_;  // indices into endpoints_
  mutable bool digest_structure_dirty_ = true;
  mutable uint64_t digest_builds_ = 0;
  mutable uint64_t digest_entries_refreshed_ = 0;
  mutable uint64_t digest_full_rebuilds_ = 0;

  // Sorted live-endpoint cache (excludes self).
  mutable std::vector<NodeId> live_cache_;
  mutable bool live_dirty_ = true;

  // Sorted unreachable-endpoint cache (known, dead, not departed). Dirtied by
  // liveness flips, membership changes, and accepted STATUS transitions (a
  // dead endpoint that goes LEFT must drop out of the unreachable set).
  mutable std::vector<NodeId> unreachable_cache_;
  mutable bool unreachable_dirty_ = true;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_GOSSIP_GOSSIPER_H_
