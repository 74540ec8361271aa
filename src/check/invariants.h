// Runtime invariant checking over live cluster state.
//
// A FaultPlan tells us what we did to the cluster; these invariants tell us
// whether the cluster stayed *correct* — the judgment ChaosSearch optimizes
// against. Both carriers own a registry and probe it on a cadence plus once at
// run end, handing it the same carrier-neutral view (NodeView): the simulated
// Cluster every check.probe_period of virtual time, RealCluster every
// probe_period of wall clock with every node's monitor held. In the simulator
// probes are pure inspections of deterministic model state (no messages, no
// CPU charge), so the resulting report is part of the byte-identical-JSON
// determinism contract and survives memoize/replay.
//
// Built-in invariants (AddBuiltins):
//   ring-ownership       every live settled node's ring view assigns each
//                        live NORMAL member exactly the member's own durable
//                        token set (token ranges owned by who should own them)
//   gossip-convergence   after faults quiesce and a grace period, every live
//                        NORMAL node sees every other live NORMAL node alive
//   partition-heals      the rounds-denominated liveness bound on healing:
//                        within partition_heal_rounds gossip rounds of fault
//                        quiescence no stable NORMAL node may still consider
//                        another stable NORMAL node dead (the islanding bug
//                        ChaosSearch found — without gossip-to-unreachable a
//                        healed full partition stays islanded forever)
//   zombie-endpoint      a node that completed decommission (LEFT/REMOVED)
//                        must leave every live settled ring view
//   generation-monotonic a viewer's record of a peer's (generation, max
//                        version) never moves backwards within the viewer's
//                        own incarnation
//   kv-history           the recorded client op history satisfies
//                        read-your-writes / no-lost-acknowledged-writes
//                        (only on workloads that preserve key ownership; the
//                        simulator has no data-streaming model, so membership
//                        changes legitimately strand acked data)
//   kv-durability        every replica that acknowledged an OK write and is
//                        currently running must hold a version of the key at
//                        least as new as the acked write — across crash and
//                        restart. Auditing the CONCRETE ackers (not the
//                        current natural endpoints) makes the check immune to
//                        ring movement; only meaningful with the WAL enabled
//                        (kv.wal), since without it replica storage is
//                        unrealistically crash-durable by construction
//   replica-convergence  two facets of anti-entropy health. Data: after fault
//                        quiescence plus a grace period, every stable NORMAL
//                        natural replica of a sampled set of acknowledged
//                        writes must hold a version at least as new as the
//                        winning acked timestamp — divergence that hinted
//                        handoff missed must be repaired by anti-entropy
//                        within the grace window. Budget: with repair on
//                        (kv.repair), no node may stream repair bytes beyond
//                        2x its configured rate over the run (plus a fixed
//                        slack), nor open sessions faster than 2x its
//                        schedule allows — the signature of a repair storm
//                        that ignores its throttle (plant_repair_storm)

#ifndef SCALECHECK_SRC_CHECK_INVARIANTS_H_
#define SCALECHECK_SRC_CHECK_INVARIANTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/check/check_options.h"
#include "src/cluster/workload.h"
#include "src/common/types.h"
#include "src/gossip/endpoint_state.h"

namespace scalecheck {

class JsonWriter;
class KvHistory;
class ProtocolNode;
struct ClusterConfig;

// Aggregated sighting of one invariant: the virtual time and detail of the
// first violation plus how many sightings followed (a persistent zombie is
// re-seen every probe; count separates transient from sticky).
struct InvariantViolation {
  std::string invariant;
  VirtualTime first_at;
  std::string detail;  // first sighting's detail
  int64_t count = 0;
};

struct InvariantReport {
  bool checked = false;
  uint64_t probes = 0;
  bool kv_checked = false;
  // One entry per violated invariant name, in first-violation order.
  std::vector<InvariantViolation> violations;

  bool ok() const { return violations.empty(); }
  std::vector<std::string> ViolatedNames() const;
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;
};

// What the registry learned about each node across probes; shared scaffolding
// for the incarnation- and transition-aware gates above.
struct NodeTrack {
  bool seen = false;
  bool crashed = false;
  int64_t generation = 0;  // node's own gossip generation (bumps on restart)
  StatusKind status = StatusKind::kUnknown;
  // First probe that saw this node NORMAL under its current incarnation;
  // cleared by crash or generation bump.
  bool has_normal_since = false;
  VirtualTime normal_since;
  // First probe that saw this node LEFT/REMOVED (never cleared: tombstones
  // are permanent).
  bool has_left_seen = false;
  VirtualTime left_seen_at;
};

class InvariantRegistry;

// One node as the invariants and the run totals see it on either carrier:
// the protocol core plus the one host fact the core lacks.
struct NodeView {
  const ProtocolNode* core = nullptr;
  bool started = false;  // a joiner is not started before its join time

  // Started and not crashed: participating in the protocol.
  bool running() const;
};

// A carrier's nodes (its Node or RealNode pointers, in id order) as
// NodeViews. The real carrier holds every node's monitor while it reads them.
template <typename Nodes>
std::vector<NodeView> ViewNodes(const Nodes& nodes) {
  std::vector<NodeView> views;
  views.reserve(nodes.size());
  for (const auto& node : nodes) views.push_back(NodeView{&node->core(), node->started()});
  return views;
}

// Whether the kv-history, kv-durability and replica-convergence data checks
// are sound for this run. The workload must preserve key ownership: the
// simulator has no data-streaming model, so a membership change legitimately
// strands acknowledged data on the old replicas. Reads and writes must also
// intersect, which consistency ONE does not provide (a ONE read legitimately
// misses a ONE write). The real carrier changes no membership, so it asks
// with kSteadyState.
bool KvHistoryCheckable(WorkloadKind workload, const ClusterConfig& config);

struct InvariantContext {
  VirtualTime now;
  // All cluster nodes in id order, so (*nodes)[id] is node `id` (crashed
  // ones included; checkers filter).
  const std::vector<NodeView>* nodes = nullptr;
  // The run's configuration: the replication factor, the gossip round
  // period (scales partition_heal_rounds) and the KV settings, whose kv.wal
  // and kv.repair arm the invariants above.
  const ClusterConfig* config = nullptr;
  // Instant the last scheduled fault heals (Zero when no faults). The real
  // carrier boots from seeds, so it is not quiet before it first converges.
  VirtualTime fault_quiet_at;
  // KvHistoryCheckable for this run.
  bool kv_checkable = false;
  const KvHistory* history = nullptr;
};

class Invariant {
 public:
  virtual ~Invariant() = default;
  virtual const char* name() const = 0;
  // Inspect ctx and report violations through the registry. Must be
  // deterministic: iterate ordered containers only (a hash map may serve
  // lookups, never an iteration).
  virtual void Probe(const InvariantContext& ctx, InvariantRegistry* sink) = 0;
};

class InvariantRegistry {
 public:
  explicit InvariantRegistry(CheckOptions options);
  ~InvariantRegistry();
  InvariantRegistry(const InvariantRegistry&) = delete;
  InvariantRegistry& operator=(const InvariantRegistry&) = delete;

  // Registers the eight built-in invariants documented above.
  void AddBuiltins();
  void Add(std::unique_ptr<Invariant> invariant);

  // Updates node tracks, then dispatches every registered invariant.
  void Probe(const InvariantContext& ctx);
  // The probe both carriers run: `nodes` at `now`, in a run with `config`
  // and `workload` that is quiet from `fault_quiet_at` and records its client
  // ops into `history` (null when off).
  void ProbeNodes(VirtualTime now, const std::vector<NodeView>& nodes,
                  const ClusterConfig& config, WorkloadKind workload,
                  VirtualTime fault_quiet_at, const KvHistory* history);

  // Aggregates into the report keyed by invariant name. The first sighting
  // of a name pins `at` and formats `fmt` into the detail; a later sighting
  // is a name compare and a count bump, and formats nothing.
  [[gnu::format(printf, 4, 5)]] void ReportViolation(const char* invariant,
                                                     VirtualTime at,
                                                     const char* fmt, ...);

  const InvariantReport& report() const { return report_; }
  const CheckOptions& options() const { return options_; }
  const std::map<NodeId, NodeTrack>& tracks() const { return tracks_; }

 private:
  void UpdateTracks(const InvariantContext& ctx);

  CheckOptions options_;
  InvariantReport report_;
  std::vector<std::unique_ptr<Invariant>> invariants_;
  std::map<NodeId, NodeTrack> tracks_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_CHECK_INVARIANTS_H_
