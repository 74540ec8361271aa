// The simulated host of a Cassandra-like node.
//
// The protocol itself — gossip, failure detection, the ring view, pending
// changes, the recalculation decision, the KV service — lives in the
// carrier-neutral ProtocolNode (protocol_node.h), which the real-socket
// RealNode hosts too. Node keeps only what models a node on a simulated
// machine, and drives the core through direct calls.
//
// Thread structure mirrors the real system (and the paper's observation that
// each node runs "at most 2 busy cores (e.g., gossiper and gossip-processing
// threads)"):
//
//   gossip_task_thread   every second: heartbeat++, SYN to a random live
//                        peer, failure-detector sweep (convictions happen
//                        here, so a node keeps convicting even when its
//                        processing stage is starved — as in Cassandra).
//   gossip_stage_thread  processes SYN/ACK/ACK2, applies endpoint states,
//                        maintains the local ring view; in the C3831/C3881
//                        era also runs the pending-range calculation INLINE,
//                        which is the whole disaster.
//   calc_thread          (C5456-era placements) runs the calculation off the
//                        stage, synchronizing via the ring-table SimMutex.
//
// Each protocol body runs inside a Job on one of those threads, with its
// modelled CPU cost and, where the placement says so, the ring SimMutex.
// The pending-range calculation crosses the PIL boundary: depending on the
// run mode it executes (real/colocated/memoize) or sleeps (replay). Also
// sim-only: MemoryModel charges and trace records. Gossip and KV payloads come from the cluster's shared pools
// (Env::payloads, Env::kv_payloads), not from pools of the node's own.

#ifndef SCALECHECK_SRC_CLUSTER_NODE_H_
#define SCALECHECK_SRC_CLUSTER_NODE_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/cluster/config.h"
#include "src/cluster/protocol_node.h"
#include "src/cluster/workload.h"
#include "src/common/stats.h"
#include "src/gossip/flap_counter.h"
#include "src/gossip/gossiper.h"
#include "src/gossip/messages.h"
#include "src/kv/kv_service.h"
#include "src/pil/boundary.h"
#include "src/ring/calculators.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"
#include "src/sim/thread.h"
#include "src/sim/trace.h"
#include "src/transport/sim_substrate.h"
#include "src/transport/substrate.h"

namespace scalecheck {

class KvHistory;
struct GossipPayloadPools;

// Process-level cache of calculator outputs keyed by input digest. A harness
// optimization, not a semantic one: the calculators are pure functions, and
// hundreds of nodes redundantly computing identical inputs is precisely the
// redundancy the paper's PIL exploits. Virtual-time cost is still charged per
// invocation; only host wall-clock is saved.
//
// Internally synchronized: one cache is shared across every concurrently
// executing run of an ExperimentSuite. Because an entry is a pure function of
// its key (same input digest + calculator version => same output/work/ops for
// a fixed execute_threshold_ops), cache hits are value-identical to
// recomputation regardless of which host thread populated the entry first —
// parallel suites stay byte-deterministic. Entries are never erased, so
// returned pointers stay valid for the cache's lifetime (std::unordered_map
// never invalidates element pointers on insert).
//
// Sharded by key hash: every worker of a parallel suite hits this cache on
// every recalc, so a single mutex would serialize them; sixteen independent
// shards keep lock hold times off each other's critical paths.
class CalcOutputCache {
 public:
  struct Entry {
    std::vector<uint8_t> output;
    WorkUnits work = 0;
    int64_t ops = 0;
    bool executed = false;
  };

  const Entry* Find(CalcVersion version, const DigestValue& digest) const;
  void Put(CalcVersion version, const DigestValue& digest, Entry entry);
  uint64_t hits() const;
  size_t size() const;

 private:
  struct Key {
    int version;
    DigestValue digest;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return DigestValueHash()(k.digest) ^ static_cast<size_t>(k.version * 1099511);
    }
  };
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, KeyHash> map;
    mutable uint64_t hits = 0;
  };
  Shard& ShardFor(const Key& k) const {
    size_t h = KeyHash()(k);
    // Fold the high bits in; the map inside the shard reuses the same hash,
    // so the low bits alone would correlate with bucket choice.
    return shards_[(h ^ (h >> 17)) % kShards];
  }
  mutable std::array<Shard, kShards> shards_;
};

class Node final : private ProtocolNode::Host {
 public:
  // Shared environment owned by the Cluster.
  struct Env {
    // The simulator is used only to host sim-side machinery (stage threads,
    // the ring SimMutex); all protocol-visible time and messaging goes
    // through the substrate seam below.
    Simulator* sim = nullptr;
    Transport* transport = nullptr;
    Clock* clock = nullptr;
    FlapCounter* flaps = nullptr;
    PilBoundary* pil = nullptr;
    const ClusterConfig* config = nullptr;
    PendingRangeCalculator* calculator = nullptr;      // configured generation
    PendingRangeCalculator* bootstrap_calc = nullptr;  // C6127 fresh path
    PilFunctionId calc_function = kInvalidPilFunction;
    PilFunctionId bootstrap_function = kInvalidPilFunction;
    // Profiled but NOT PIL-replaceable (side effects / nondeterminism);
    // these are the linear serialization class of §4's footnote.
    PilFunctionId gossip_syn_function = kInvalidPilFunction;
    PilFunctionId gossip_apply_function = kInvalidPilFunction;
    PilFunctionId fd_sweep_function = kInvalidPilFunction;
    CalcOutputCache* output_cache = nullptr;
    // Optional execution trace (determinism digests, debug dumps).
    TraceRecorder* trace = nullptr;

    // Metric sinks (owned by Cluster).
    RunningStat* calc_durations = nullptr;
    int64_t* calc_invocations = nullptr;
    int64_t* calc_executed_real = nullptr;
    // sfind hook: (function, executed ops, ring entries at invocation).
    std::function<void(PilFunctionId, int64_t, size_t)> profile_hook = nullptr;
    // Client-op history sink for the KV invariant checker (null = off).
    KvHistory* kv_history = nullptr;
    // The cluster's recycled SYN/ACK/ACK2 payloads (cluster.h).
    GossipPayloadPools* payloads = nullptr;
    // The cluster's recycled KV request/response payloads (kv_service.h).
    KvPayloadPools* kv_payloads = nullptr;
  };

  Node(Env* env, NodeId id, Machine* machine, uint64_t seed);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return core_.id(); }

  // ---- Pre-start configuration -------------------------------------------

  // Installs knowledge of a settled cluster: all members NORMAL with their
  // tokens, ring populated, failure-detector windows primed.
  void PrimeSettled(const std::map<NodeId, std::vector<Token>>& members);
  // For joiners: the only peers known at start.
  void PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members);
  // For fresh bootstrap: bare contact addresses with no known state (the
  // contacts themselves are bootstrapping too).
  void PrimeContacts(const std::vector<NodeId>& contacts);
  // Seed addresses for the gossip-to-unreachable escape hatch: when the live
  // view is empty (islanded after a partition), the round SYNs one of these
  // unconditionally so the node can rejoin. Self is filtered out.
  void SetSeedContacts(const std::vector<NodeId>& contacts) {
    core_.SetSeedContacts(contacts);
  }

  // ---- Lifecycle -----------------------------------------------------------

  // Registers with the network and starts periodic gossip. A joiner
  // announces BOOT with its tokens and turns NORMAL after `transition`.
  void Start(bool as_joiner, VirtualDuration transition);
  // Announces LEAVING now and LEFT after `transition`.
  void BeginDecommission(VirtualDuration transition);
  // Hard crash: threads die, network unregisters, the ring lock is
  // force-released (a dead process holds no locks), the KV service goes
  // down, memory is freed.
  void Crash();
  // Brings a crashed node back as a fresh process with a bumped gossip
  // generation: protocol state is rebuilt from scratch, the ring view is
  // re-learned via `contacts`, and the durable token assignment is kept.
  void Restart(const std::vector<NodeId>& contacts);
  bool crashed() const { return core_.crashed(); }
  bool started() const { return started_; }

  // ---- Introspection -------------------------------------------------------

  // The carrier-neutral protocol state: gossip, ring view, pending changes,
  // status and tokens (what the invariant checker reads, on either carrier).
  const ProtocolNode& core() const { return core_; }
  const SimMutex& ring_lock() const { return ring_lock_; }
  // Non-null iff config.kv.enabled.
  KvService* kv() { return core_.kv(); }
  const KvService* kv() const { return core_.kv(); }
  // Gossip-processing tasks shed for staleness (stage overload signature).
  uint64_t stage_tasks_dropped() const { return gossip_stage_.jobs_dropped(); }
  // Arena footprint of the gossip scratch (what MemoryModel is charged
  // under the "gossip-arena" tag while the node is up).
  uint64_t arena_bytes_reserved() const {
    return core_.gossiper().scratch_arena().bytes_reserved();
  }
  Machine* machine() const { return machine_; }

 private:
  // ---- Message delivery: each gossip body runs as a stage Job ---------------
  void OnMessage(const Message& msg);
  void GossipRound();
  void FailureSweep();
  void SendSyn(NodeId peer);
  void HandleSynMessage(const Message& msg);
  void HandleAckMessage(const Message& msg);
  void HandleAck2Message(const Message& msg);
  // Process-level charges of a (re)starting node: runtime, endpoint table,
  // gossip arena.
  void ChargeProcessMemory();
  void StartGossipTimer();

  // ---- ProtocolNode::Host ------------------------------------------------
  void OnConviction(NodeId ep, VirtualTime now) override;
  void OnRescue(NodeId ep, bool restarted) override;
  void OnStatusTransition(NodeId ep, StatusKind new_status) override;
  void OnPendingSetChanged() override;
  // Builds the recalc Job on the calc thread (placement decides the ring
  // lock discipline) with the PIL boundary around the calculator.
  void RunCalculator() override;

  // The PIL compute closure (consults the output cache; real-vs-model).
  PilBoundary::ComputeOutput ComputeCalc(const CalcInput& input, bool bootstrap_path);

  bool UsesRingLock() const {
    return env_->config->calc_placement != CalcPlacement::kInlineGossipStage;
  }
  SimThread* CalcThread() {
    return env_->config->calc_placement == CalcPlacement::kInlineGossipStage
               ? &gossip_stage_
               : calc_thread_.get();
  }

  Env* env_;
  Machine* machine_;

  SimMutex ring_lock_;
  SimThread gossip_task_;
  SimThread gossip_stage_;
  std::unique_ptr<SimThread> calc_thread_;
  std::unique_ptr<SimThread> kv_stage_;
  std::unique_ptr<SimStage> kv_stage_adapter_;  // seam view of kv_stage_
  ProtocolNode core_;
  std::unique_ptr<PeriodicClockTimer> gossip_timer_;

  bool partition_services_allocated_ = false;
  int64_t partition_services_bytes_ = 0;

  bool started_ = false;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_CLUSTER_NODE_H_
