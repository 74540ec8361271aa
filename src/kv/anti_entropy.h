// Anti-entropy repair: the third repair mechanism of the data path, after
// hinted handoff and read repair (kv_service.h).
//
// Each node periodically picks a live co-replica peer and runs a repair
// session against it: the two compare Merkle subtree hashes (merkle.h) over
// the token ranges BOTH are replicas for, descending root -> subtrees ->
// leaves, and stream only the leaf spans that differ. Streamed keys carry
// their ORIGINAL write timestamps and are applied last-write-wins, the same
// idempotence rule hint replay relies on — repairing twice, or racing a
// newer foreground write, is harmless.
//
// Anti-entropy is the repair mechanism that can become the outage ("Cheap
// Recovery": repair must be cheap, bounded, and safe to run continuously),
// so the scheduler is overload-safe by construction:
//  - a per-node token bucket caps repair bytes/sec (hash exchange is
//    pre-charged, streams are post-charged and may overdraw one round —
//    the next round waits for the refill);
//  - at most `KvConfig::repair_max_sessions` concurrent sessions per
//    initiator;
//  - sessions yield when in-flight foreground client ops exceed a threshold
//    (graceful degradation: repair slows, client traffic doesn't);
//  - per-session timeouts with bounded retries; a peer that crashes
//    mid-session is abandoned and counted (kv_repair_aborted), never
//    retried forever.
//
// The planted repair-storm bug (CheckOptions::plant_repair_storm) disables
// every one of those guards: each tick streams the FULL shared range to
// every co-replica peer, unthrottled — the ChaosSearch target the
// replica-convergence invariant's repair-throughput facet catches.

#ifndef SCALECHECK_SRC_KV_ANTI_ENTROPY_H_
#define SCALECHECK_SRC_KV_ANTI_ENTROPY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/gossip/gossiper.h"
#include "src/kv/kv_service.h"
#include "src/kv/merkle.h"
#include "src/ring/token_ring.h"
#include "src/transport/substrate.h"

namespace scalecheck {

// These share the cluster NetworkModel with the gossip, KV and repair types
// (src/gossip/messages.h, src/kv/kv_service.h, src/kv/anti_entropy.h), so
// values stay distinct across the three enums.
enum KvRepairMessageType : int {
  // Initiator -> peer: subtree hashes at one tree level. The peer compares
  // against its own tree (masked to the ranges it shares with the sender).
  kKvRepairHashReq = 14,
  // Peer -> initiator: which of those subtrees differ.
  kKvRepairHashResp = 15,
  // Fire-and-forget replica write from a repair stream. Applied like a
  // replica write (WAL included) but never acked; the receiver counts it as
  // "fixed" only when it actually advanced the local version.
  kKvRepairStreamWrite = 16,
};

struct KvRepairHashPayload : public Payload {
  uint64_t session_id = 0;
  uint32_t level = 0;  // 0 = root, MerkleTree::depth() = leaves
  // (node index at `level`, masked subtree hash), strictly ascending index.
  std::vector<std::pair<uint64_t, DigestValue>> hashes;

  size_t SizeBytes() const override { return 24 + hashes.size() * 24; }
};

struct KvRepairDiffPayload : public Payload {
  uint64_t session_id = 0;
  uint32_t level = 0;
  std::vector<uint64_t> differing;  // strictly ascending node indices

  size_t SizeBytes() const override { return 24 + differing.size() * 8; }
};

// One per node, owned by its KvService. Speaks only to the substrate seam,
// so the same scheduler runs on the simulator and the real-socket carrier.
class AntiEntropy {
 public:
  // Runs inside its owner `kv`: reads its Deps, counts into its KvStats,
  // takes its in-flight client ops as the pressure signal and streams keys
  // through it. `seed` seeds the scheduler's RNG.
  AntiEntropy(KvService* kv, uint64_t seed);
  ~AntiEntropy();
  AntiEntropy(const AntiEntropy&) = delete;
  AntiEntropy& operator=(const AntiEntropy&) = delete;

  // Arms the periodic scheduler (desynchronized initial phase).
  void Start();
  // Crash path: aborts every active session (counted in kv_repair_aborted)
  // and stops the scheduler. Start() re-arms after restart.
  void Stop();
  // Teardown path (real carrier shutdown): cancels timers, no accounting.
  void Shutdown();

  void HandleMessage(const Message& msg);

  // Replica write path hook: `key` is now visible at `timestamp`.
  void OnWriteApplied(uint64_t key, int64_t timestamp) {
    tree_.Apply(key, timestamp);
  }
  void ClearTree() { tree_.Clear(); }

  const MerkleTree& tree() const { return tree_; }
  size_t active_sessions() const { return sessions_.size(); }
  int64_t ApproxBytes() const;

  // Ranges of `ring` for which both `self` and the mapped peer are natural
  // replicas, in one O(entries * rf) pass. The mask both ends of a session
  // compute independently from their own ring views.
  static std::map<NodeId, std::vector<KeyRange>> CoReplicaRanges(
      const TokenRing& ring, int rf, NodeId self);

 private:
  struct Session {
    NodeId peer = kInvalidNode;
    std::vector<KeyRange> mask;
    // Nodes still to compare, as (level, index); batches are single-level.
    std::deque<std::pair<int, uint64_t>> frontier;
    int awaiting_level = -1;  // batch in flight, -1 = none
    std::vector<uint64_t> awaiting_nodes;
    int retries = 0;
    int outstanding_streams = 0;
    TimerId timeout_timer = kInvalidTimer;
    TimerId resume_timer = kInvalidTimer;
  };

  void Tick();
  void StormTick();
  void StartSession(NodeId peer, std::vector<KeyRange> mask);
  void SendNextBatch(uint64_t id);
  void HandleHashReq(const Message& msg);
  void HandleHashResp(const Message& msg);
  void OnTimeout(uint64_t id);
  void AbortSession(uint64_t id);
  void FinishIfIdle(uint64_t id);
  void StreamLeaves(uint64_t session_id, NodeId target,
                    const std::vector<uint64_t>& leaves,
                    const std::vector<KeyRange>& mask);
  void CancelSessionTimers(Session* s);

  // Token bucket over all repair traffic this node originates.
  void RefillBucket();
  bool SpendBytes(int64_t bytes);      // pre-charge; false = wait for refill
  void ChargeBytes(int64_t bytes);     // post-charge; may overdraw
  VirtualDuration DelayForBytes(int64_t bytes);

  KvService& kv_;
  const KvService::Deps& deps_;  // kv_.deps_
  MerkleTree tree_;
  Rng rng_;
  bool running_ = false;
  std::unique_ptr<PeriodicClockTimer> timer_;
  std::map<uint64_t, Session> sessions_;
  uint64_t next_session_ = 1;
  double bucket_bytes_ = 0;
  VirtualTime bucket_refilled_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_KV_ANTI_ENTROPY_H_
