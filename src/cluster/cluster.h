// Builds a deployment (simulator + machines + nodes), drives a workload, and
// collects a RunResult. One Cluster = one run of Figure 3's inner loop.

#ifndef SCALECHECK_SRC_CLUSTER_CLUSTER_H_
#define SCALECHECK_SRC_CLUSTER_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/check/invariants.h"
#include "src/common/interner.h"
#include "src/cluster/config.h"
#include "src/cluster/node.h"
#include "src/cluster/run_result.h"
#include "src/cluster/workload.h"
#include "src/kv/kv_history.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/gossip/flap_counter.h"
#include "src/gossip/messages.h"
#include "src/pil/boundary.h"
#include "src/pil/function_registry.h"
#include "src/pil/memo_store.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"
#include "src/sim/payload_pool.h"
#include "src/transport/sim_substrate.h"
#include "src/sim/profiler.h"
#include "src/sim/simulator.h"

namespace scalecheck {

// Key popularity for the KV load driver: uniform over the key space, or
// Zipf(s) where key k has weight 1/(k+1)^s — a hot-key skew that concentrates
// both foreground traffic and repair divergence on a few token ranges.
enum class KvKeyDist { kUniform, kZipf };

// The recycled gossip payloads of one simulated cluster, one pool per message
// kind. The simulator runs one event at a time on one host thread, so a
// payload freed by one node can carry the next send of any other: a pool per
// node would only park idle capacity (an ACK that once carried every
// endpoint state keeps its ~47 KB at N=256). The SYN pool parks up to one
// payload per node, so the burst of digests a stalled stage returns is kept
// for the sends that follow rather than freed and allocated again; a SYN
// holds only 24-byte digests (6 KB at N=256). The state-carrying ACK and ACK2
// pools keep the default bound: parking one per node there too raised fig3
// peak RSS by 12% (EXPERIMENTS.md, "Job path").
struct GossipPayloadPools {
  explicit GossipPayloadPools(size_t nodes = PayloadPool<SynPayload>::kMaxParked)
      : syn(nodes) {}

  PayloadPool<SynPayload> syn;
  PayloadPool<AckPayload> ack;
  PayloadPool<Ack2Payload> ack2;
};

class Cluster {
 public:
  struct Options {
    ClusterConfig config;
    WorkloadSpec workload;
    // kMemoize: records into these. kPilReplay: reads from them.
    MemoStore* memo_store = nullptr;
    // Optional cross-run calculator output cache (harness wall-clock only).
    CalcOutputCache* shared_output_cache = nullptr;
    // sfind profiling hook: (function, executed ops, ring entries).
    std::function<void(PilFunctionId, int64_t, size_t)> profile_hook;
    NetworkModel::Config network;
    // Client load on the KV data path (requires config.kv.enabled).
    double kv_ops_per_second = 0.0;
    uint64_t kv_key_space = 100000;
    // Key distribution for the driver. Zipf sampling draws from the same RNG
    // stream as uniform (one draw per op), so switching distributions changes
    // which keys are hit but not the rest of the run's randomness.
    KvKeyDist kv_key_dist = KvKeyDist::kUniform;
    double kv_zipf_s = 1.0;  // Zipf exponent (only read when kv_key_dist=kZipf)
    // Record an execution trace (determinism digests, debugging dumps).
    bool enable_trace = false;
    // Optional profiler: deterministic op counters land in
    // RunResult::profile, host wall timers stay on the profiler itself.
    SimProfiler* profiler = nullptr;
    // Seed-deterministic fault schedule injected during the run. Part of the
    // run's identity: memoize and replay apply the identical schedule.
    FaultPlan faults;
    // Host wall-clock watchdog for this run (0 disables). When it fires the
    // simulation stops early and RunResult::watchdog_fired is set — the
    // self-healing suite executor uses this to bound runaway cells.
    double wall_budget_seconds = 0.0;
  };

  explicit Cluster(Options options);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs the workload to settle+cooldown (or the horizon) and reports.
  RunResult Run();

  // ---- Introspection (tests, examples) ------------------------------------
  Simulator& sim() { return *sim_; }
  Node* node(NodeId id) { return nodes_.at(static_cast<size_t>(id)).get(); }
  size_t total_nodes() const { return nodes_.size(); }
  const FlapCounter& flaps() const { return flaps_; }
  const FunctionRegistry& registry() const { return registry_; }
  MachineSet& machines() { return *machines_; }
  // Non-null iff Options::enable_trace.
  const TraceRecorder* trace() const { return trace_.get(); }
  // Non-null iff Options::faults is non-empty.
  const FaultInjector* injector() const { return injector_.get(); }
  PilFunctionId calc_function() const { return calc_function_; }
  PilFunctionId bootstrap_function() const { return bootstrap_function_; }
  const PendingRangeCalculator* calculator() const { return calculator_.get(); }
  const PendingRangeCalculator* bootstrap_calc() const { return bootstrap_calc_.get(); }
  // Non-null iff config.check.enabled && config.kv.enabled.
  const KvHistory* kv_history() const { return kv_history_.get(); }
  // Deployment name->id authority; interning order == NodeId (checked).
  const EndpointInterner& interner() const { return interner_; }

 private:
  void BuildDeployment();
  void ScheduleWorkload();
  bool WorkloadSettled() const;
  void ProbeInvariants();
  void CollectResult(RunResult* result) const;

  Options options_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<MachineSet> machines_;
  std::unique_ptr<NetworkModel> network_;
  // The transport adapter the nodes send through; their clock is sim_ itself.
  std::unique_ptr<SimTransport> sim_transport_;
  FlapCounter flaps_;
  FunctionRegistry registry_;
  PilFunctionId calc_function_ = kInvalidPilFunction;
  PilFunctionId bootstrap_function_ = kInvalidPilFunction;
  PilFunctionId gossip_syn_function_ = kInvalidPilFunction;
  PilFunctionId gossip_apply_function_ = kInvalidPilFunction;
  PilFunctionId fd_sweep_function_ = kInvalidPilFunction;
  std::unique_ptr<PendingRangeCalculator> calculator_;
  std::unique_ptr<PendingRangeCalculator> bootstrap_calc_;
  std::unique_ptr<PilBoundary> pil_;
  std::unique_ptr<FidelityGuard> guard_;  // null iff config.guard.enabled is false
  std::unique_ptr<InvariantRegistry> invariants_;  // null iff !config.check.enabled
  std::unique_ptr<KvHistory> kv_history_;
  std::unique_ptr<CalcOutputCache> owned_output_cache_;
  std::unique_ptr<TraceRecorder> trace_;
  GossipPayloadPools payloads_;
  std::unique_ptr<KvPayloadPools> kv_payloads_;  // null unless config.kv.enabled
  Node::Env env_;

  EndpointInterner interner_;
  std::vector<std::unique_ptr<Node>> nodes_;
  int initial_nodes_ = 0;
  int joining_nodes_ = 0;

  // Metric sinks wired into Node::Env.
  RunningStat calc_durations_;
  int64_t calc_invocations_ = 0;
  int64_t calc_executed_real_ = 0;

  bool settled_ = false;
  VirtualTime settle_time_;
  int crashed_nodes_ = 0;
  int restarted_nodes_ = 0;

  // Fault injection (null when Options::faults is empty).
  std::unique_ptr<FaultInjector> injector_;

  // KV load driver. Its requests, outcomes and latencies are counted by
  // each coordinator's KvService, not here.
  std::unique_ptr<Rng> kv_rng_;
  std::vector<double> kv_zipf_cdf_;  // built once when kv_key_dist=kZipf
  uint64_t SampleKvKey();
  // Requests issued so far; numbers the unique write values.
  int64_t kv_seq_ = 0;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_CLUSTER_CLUSTER_H_
