// The replicated data path riding on the ring.
//
// Each node can act as a coordinator: replicas of a key are the ring's
// natural endpoints; the coordinator sends the operation to the replicas it
// believes ALIVE and waits for the consistency level's ack count. This is
// where scalability bugs become user-visible (§2: "many live nodes are
// declared as dead, making some data not reachable by the users"): during a
// flap storm the coordinator's liveness view collapses and operations fail
// UNAVAILABLE even though every replica is actually up.
//
// The durable data path (this file + wal.h):
//  - every replica write is appended to a per-node write-ahead log and acked
//    only after the group-commit sync makes it durable, so acked writes
//    survive the crash/restart lifecycle (OnCrash/OnRestart);
//  - a coordinator that skips a dead replica stores a bounded, TTL'd hint and
//    replays it when the failure detector marks the target alive again;
//  - quorum reads detect stale replicas by hybrid timestamp and write the
//    winning version back (blocking on observed mismatch, probabilistic
//    background repair toward silent replicas otherwise);
//  - the ack threshold is tunable ONE/QUORUM/ALL (kv_config.h).

#ifndef SCALECHECK_SRC_KV_KV_SERVICE_H_
#define SCALECHECK_SRC_KV_KV_SERVICE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/gossip/gossiper.h"
#include "src/kv/inflight_table.h"
#include "src/kv/kv_config.h"
#include "src/kv/storage_engine.h"
#include "src/kv/wal.h"
#include "src/ring/token_ring.h"
#include "src/sim/payload_pool.h"
#include "src/transport/substrate.h"

namespace scalecheck {

class AntiEntropy;
class KvHistory;

// The partitioner: client keys are small dense integers, ring tokens are
// uniform 64-bit values, so placement must hash the key onto the token space
// (Cassandra's Murmur3Partitioner plays this role). Using the raw key as a
// token would wrap every small key onto the single ring entry with the
// lowest token — the whole keyspace would land on one replica set. Anything
// that predicts a key's replicas (tests, experiment drivers) must go through
// this same mapping.
Token KvTokenForKey(uint64_t key);

// These share the cluster NetworkModel with the gossip, KV and repair types
// (src/gossip/messages.h, src/kv/kv_service.h, src/kv/anti_entropy.h), so
// values stay distinct across the three enums.
enum KvMessageType : int {
  kKvWriteReq = 10,
  kKvWriteResp = 11,
  kKvReadReq = 12,
  kKvReadResp = 13,
};

// One request per coordinator attempt, shared by every replica it goes to
// (payloads are immutable once sent).
struct KvRequestPayload : public Payload {
  uint64_t op_id = 0;
  uint64_t key = 0;
  std::string value;  // writes only
  int64_t timestamp = 0;

  size_t SizeBytes() const override { return 48 + value.size(); }
  // PayloadPool recycling hook: empty the content, keep the capacity.
  void Clear() {
    op_id = 0;
    key = 0;
    value.clear();
    timestamp = 0;
  }
};

struct KvResponsePayload : public Payload {
  uint64_t op_id = 0;
  // The replica processed the request (counts toward quorum). A read of an
  // absent key still acks — quorum agreement on "not found" is a successful
  // read.
  bool ack = false;
  bool found = false;     // reads: replica had a value
  int64_t timestamp = 0;  // reads: version of the returned value
  std::string value;      // reads only

  size_t SizeBytes() const override { return 24 + value.size(); }
  // PayloadPool recycling hook: empty the content, keep the capacity.
  void Clear() {
    op_id = 0;
    ack = false;
    found = false;
    timestamp = 0;
    value.clear();
  }
};

// The recycled KV payloads of one simulated cluster, shared by its nodes as
// GossipPayloadPools are (src/cluster/cluster.h). A payload goes back to its
// pool when the replica's stage job, or the coordinator's response handling,
// lets go of it. Each pool parks up to `max_parked`; the cluster passes its
// node count, enough for the acks one group commit releases at once.
struct KvPayloadPools {
  explicit KvPayloadPools(size_t max_parked = PayloadPool<KvRequestPayload>::kMaxParked)
      : request(max_parked), response(max_parked) {}

  PayloadPool<KvRequestPayload> request;
  PayloadPool<KvResponsePayload> response;
};

enum class KvOutcome : int {
  kOk = 0,
  kUnavailable = 1,  // fewer live replicas than the ack threshold at submission
  kTimeout = 2,      // ack threshold not reached in time
};

struct KvStats {
  // Final client outcomes (after any retries).
  int64_t ok = 0;
  int64_t unavailable = 0;
  int64_t timeout = 0;
  // Retry accounting: `retries` counts re-submitted attempts; `gave_up`
  // counts client requests that ended without an OK (so every client request
  // ends as exactly ok or gave_up — the conservation identity the fault
  // benches assert).
  int64_t retries = 0;
  int64_t gave_up = 0;
  // Client requests by the consistency level they ran under.
  int64_t ops_one = 0;
  int64_t ops_quorum = 0;
  int64_t ops_all = 0;
  // Data-path counters (see the header comment). `wal_bytes` is bytes made
  // durable by group commits; `wal_lost_records` counts appended-but-unsynced
  // records a crash threw away (nonzero is normal — they were never acked,
  // unless the planted ack-before-sync bug is armed).
  int64_t wal_appends = 0;
  int64_t wal_syncs = 0;
  int64_t wal_bytes = 0;
  int64_t wal_recovered_records = 0;
  int64_t wal_lost_records = 0;
  int64_t hints_queued = 0;
  int64_t hints_replayed = 0;
  int64_t hints_expired = 0;
  int64_t hints_dropped = 0;  // queue at capacity
  int64_t read_repairs = 0;   // repair writes sent (both repair flavours)
  // Anti-entropy (anti_entropy.h). `repair_sessions` counts sessions this
  // node initiated; `repair_bytes_streamed` counts repair-stream payload
  // bytes this node sent; `repair_keys_fixed` counts received stream writes
  // that actually advanced the local version; `repair_aborted` counts
  // sessions abandoned (peer died mid-session, or retries exhausted).
  int64_t repair_sessions = 0;
  int64_t repair_bytes_streamed = 0;
  int64_t repair_keys_fixed = 0;
  int64_t repair_aborted = 0;
  int64_t repair_retries = 0;   // hash batches re-sent after a timeout
  int64_t repair_backoffs = 0;  // scheduler yields to foreground pressure
  LogHistogram latency{/*base=*/1e5, /*growth=*/1.5, /*num_buckets=*/80};
};

// One per node. The owning Node routes kKv* messages here and exposes the
// coordinator API. All callbacks run on the node's kv stage thread.
class KvService {
 public:
  // KvService speaks only to the substrate seam: a Clock for timeouts and
  // backoff, a Transport for replica traffic, a Stage for charging replica
  // storage work. The same translation unit links into the simulator (via
  // Simulator/SimTransport/SimStage) and the real-socket runner (via
  // RealClock/TcpTransport/RealStage) — no forked copies, no mode #ifdefs.
  struct Deps {
    Clock* clock = nullptr;
    Transport* transport = nullptr;
    Stage* stage = nullptr;             // the node's kv stage
    const TokenRing* ring = nullptr;    // the node's ring view
    const Gossiper* gossiper = nullptr; // liveness view
    NodeId self = kInvalidNode;
    int replication_factor = 0;  // the ring's (ClusterConfig::replication_factor)
    KvConfig config;
    // The node's seed. The retry-jitter, read-repair and anti-entropy RNG
    // streams derive from it without consuming any other per-node stream.
    uint64_t seed = 0;
    // The planted ChaosSearch targets (CheckOptions documents both).
    bool plant_ack_before_sync = false;
    bool plant_repair_storm = false;
    // Memory charging: called with a byte delta whenever the data path's
    // footprint (WAL + memtable/runs + hint queue) changes; the Node wires
    // this to MachineMemoryModel under tag "kv-storage". Null = off.
    std::function<void(int64_t delta)> charge;
    // Client-op history sink for the invariant checker (null = off). Shared
    // by every coordinator in the run; single-threaded within a simulation.
    KvHistory* history = nullptr;
    // Recycled request/response payloads (the simulated cluster's). Null:
    // each payload is a fresh make_shared — what the real carrier passes,
    // since a PayloadPool is single-threaded and its nodes send from many
    // threads.
    KvPayloadPools* payloads = nullptr;
  };

  explicit KvService(Deps deps);
  ~KvService();

  // Arms periodic background machinery (today: the anti-entropy scheduler).
  // Called once the node is registered with its transport; a no-op when
  // repair is disabled.
  void Start();
  // Cancels background timers without accounting (real-carrier teardown).
  void Shutdown();

  using DoneFn = std::function<void(KvOutcome, std::string value)>;

  // Coordinator API (client entry points).
  void Write(uint64_t key, std::string value, DoneFn done);
  void Read(uint64_t key, DoneFn done);

  // Replica + response plumbing, called by the Node's message handler.
  void HandleMessage(const Message& msg);

  // Crash-restart lifecycle. While down, new attempts conclude UNAVAILABLE
  // immediately (the process is gone; its clients see connection refusal).
  // OnCrash additionally models process death: pending (unsent) write acks
  // and the volatile hint queue vanish, the unsynced WAL tail is lost, and —
  // with the WAL enabled — so is the in-memory storage engine. OnRestart
  // rebuilds storage by replaying the WAL's durable prefix.
  void OnCrash();
  void OnRestart();

  // Failure-detector hook: `target` was just marked alive again. Replays (or
  // expires) any hints queued for it.
  void OnReplicaAlive(NodeId target);

  StorageEngine& storage() { return *storage_; }
  const StorageEngine& storage() const { return *storage_; }
  const KvWal& wal() const { return wal_; }
  const KvStats& stats() const { return stats_; }
  int64_t hint_queue_depth() const { return total_hints_; }
  // Null when repair is disabled.
  const AntiEntropy* repair() const { return repair_.get(); }
  // Coordinator attempts awaiting their replicas' responses.
  size_t inflight_attempts() const { return inflight_.size(); }

  // Swaps in a (typically subclassed, deliberately broken) storage engine.
  // Test-only: the replica path loses whatever the old engine held.
  void ReplaceStorageForTest(std::unique_ptr<StorageEngine> storage) {
    storage_ = std::move(storage);
  }

 private:
  // One client request, carried across attempts. Recycled through
  // free_client_ops_ once concluded.
  struct ClientOp {
    bool is_write = false;
    uint64_t key = 0;
    std::string value;
    DoneFn done;
    int attempt = 0;
    VirtualTime started;
    VirtualTime deadline_at;
    uint64_t history_id = 0;  // KvHistory record, when recording is on
  };

  // One replication attempt, in a slot of inflight_ that later attempts
  // reuse (the vectors and the read buffer keep their capacity).
  struct InFlight {
    ClientOp* client = nullptr;
    bool is_write = false;
    uint64_t key = 0;
    // The attempt's hybrid timestamp: on an OK write, what the kv-durability
    // invariant audits its ackers for.
    int64_t timestamp = 0;
    int acks = 0;
    int needed = 0;
    int outstanding = 0;
    std::vector<NodeId> targets;   // replicas the request was sent to
    std::vector<NodeId> ack_from;  // replicas that acked, in arrival order
    // Reads: per-replica reported versions (0 = replica had no value), for
    // read repair; plus the running last-write-wins winner.
    std::vector<std::pair<NodeId, int64_t>> read_versions;
    std::string read_value;
    int64_t read_timestamp = -1;  // newest replica version seen so far
    TimerId timeout_timer = kInvalidTimer;
  };

  struct Hint {
    uint64_t key = 0;
    std::string value;
    int64_t timestamp = 0;  // the ORIGINAL write timestamp (replay-idempotent)
    VirtualTime expires_at;
  };

  struct PendingAck {
    NodeId coordinator = kInvalidNode;
    uint64_t op_id = 0;
  };

  void Submit(bool is_write, uint64_t key, std::string value, DoneFn done);
  void Attempt(ClientOp* op);
  void OnAttemptDone(ClientOp* op, KvOutcome outcome, std::string value);
  // Reports the outcome, recycles `op` and then calls its client back.
  void Conclude(ClientOp* op, KvOutcome outcome, std::string value);

  // One replication attempt; it ends in exactly one OnAttemptDone(op, ...).
  void StartOp(ClientOp* op, VirtualDuration timeout);
  // Ends attempt `op_id`: the read's winning value on kOk, "" otherwise.
  void Finish(uint64_t op_id, KvOutcome outcome);
  int RequiredAcks() const {
    return KvRequiredAcks(deps_.config.consistency, deps_.replication_factor);
  }

  std::shared_ptr<KvRequestPayload> NewRequest();
  std::shared_ptr<KvResponsePayload> NewResponse();
  // Sends to `to` over the transport, or hands a message to self straight to
  // HandleMessage (the local replica, without the network hop).
  void SendTo(NodeId to, int type, std::shared_ptr<const Payload> payload);
  // Replica-side ack transmission (deferred to group commit unless the WAL is
  // off or the planted bug acks early).
  void SendWriteAck(NodeId coordinator, uint64_t op_id);
  void ScheduleWalSync();
  void SyncWal();

  // Fire-and-forget replica write (op_id 0): hint replay and read repair.
  // Responses to op_id 0 find no in-flight op and are dropped.
  void SendReplicaWrite(NodeId target, uint64_t key, const std::string& value,
                        int64_t timestamp);
  void QueueHint(NodeId target, uint64_t key, const std::string& value,
                 int64_t timestamp);
  void MaybeReadRepair(const InFlight& op);

  // Anti-entropy plumbing: reads the current value of each (key, timestamp)
  // through the storage stage and sends kKvRepairStreamWrite messages to
  // `target`; `done` fires once with (bytes, keys) actually sent. Keys whose
  // local version moved on since the tree was hashed are sent at their
  // CURRENT timestamp (LWW makes the newer version the correct repair).
  void StreamRepairKeys(NodeId target,
                        std::vector<std::pair<uint64_t, int64_t>> keys,
                        std::function<void(int64_t, int64_t)> done);

  // Delta-charges the data path's current footprint to deps_.charge.
  void MaybeRecharge();

  friend class AntiEntropy;  // the repair scheduler runs inside its KvService

  Deps deps_;
  std::unique_ptr<StorageEngine> storage_;
  std::unique_ptr<AntiEntropy> repair_;  // null unless deps_.config.repair
  KvWal wal_;
  KvStats stats_;
  Rng retry_rng_;
  Rng repair_rng_;
  bool down_ = false;
  // Every ClientOp this coordinator has made, and the concluded ones free
  // for the next request.
  std::vector<std::unique_ptr<ClientOp>> client_ops_;
  std::vector<ClientOp*> free_client_ops_;
  InflightTable<InFlight> inflight_;
  // StartOp's replica lists, lent to one call at a time: a StartOp reentered
  // from a synchronous Finish (an inline stage) finds them empty and grows
  // its own.
  std::vector<NodeId> live_scratch_;
  std::vector<NodeId> dead_scratch_;
  // Write acks withheld until the next group-commit sync, and the batch the
  // running sync is sending (kept for its capacity).
  std::vector<PendingAck> pending_acks_;
  std::vector<PendingAck> sending_acks_;
  TimerId wal_sync_timer_ = kInvalidTimer;
  // Hinted-handoff queue, per dead target. std::map for deterministic
  // iteration; bounded by deps_.config.hint_limit across all targets.
  std::map<NodeId, std::deque<Hint>> hints_;
  int64_t total_hints_ = 0;
  int64_t hint_bytes_ = 0;
  int64_t charged_bytes_ = 0;  // last footprint reported to deps_.charge
  // Last issued write timestamp. Derived from virtual time (with the node id
  // in the low bits) so timestamps are comparable ACROSS coordinators; a
  // purely local counter would let last-write-wins resolve quorum reads
  // against the wrong coordinator's write.
  int64_t clock_counter_ = 0;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_KV_KV_SERVICE_H_
