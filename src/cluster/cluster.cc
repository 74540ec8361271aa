#include "src/cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

namespace scalecheck {
namespace {

// The run stops this long after the workload settles (flap recovery tail).
constexpr VirtualDuration kCooldown = VirtualDuration::Seconds(40);
// KV load driver writes are padded to this many bytes.
constexpr size_t kKvValueBytes = 128;

}  // namespace

const char* RunModeName(RunMode mode) {
  switch (mode) {
    case RunMode::kRealScale:
      return "Real";
    case RunMode::kColocated:
      return "Colo";
    case RunMode::kMemoize:
      return "Memoize";
    case RunMode::kPilReplay:
      return "SC+PIL";
    case RunMode::kRealSockets:
      return "RealNet";
  }
  return "?";
}

const char* CalcPlacementName(CalcPlacement placement) {
  switch (placement) {
    case CalcPlacement::kInlineGossipStage:
      return "inline-gossip-stage";
    case CalcPlacement::kSeparateThreadCoarseLock:
      return "coarse-lock";
    case CalcPlacement::kSeparateThreadClone:
      return "clone-early-release";
  }
  return "?";
}

const char* ExecModelName(ExecModel model) {
  switch (model) {
    case ExecModel::kProcessPerNode:
      return "process-per-node";
    case ExecModel::kSedaSingleProcess:
      return "seda-single-process";
  }
  return "?";
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSteadyState:
      return "steady-state";
    case WorkloadKind::kDecommission:
      return "decommission";
    case WorkloadKind::kScaleOut:
      return "scale-out";
    case WorkloadKind::kBootstrapFresh:
      return "bootstrap-fresh";
    case WorkloadKind::kFailover:
      return "failover";
    case WorkloadKind::kRebalance:
      return "rebalance";
  }
  return "?";
}

std::string WorkloadSpec::Describe() const {
  return StrFormat("%s(join=%d target=%d start=%s transition=%s horizon=%s)",
                   WorkloadKindName(kind), joining_nodes, target,
                   start_at.ToString().c_str(), transition.ToString().c_str(),
                   horizon.ToString().c_str());
}

Cluster::Cluster(Options options) : options_(std::move(options)) {
  SimProfiler::Timed timed(options_.profiler, SimProfiler::kPhaseBuild);
  BuildDeployment();
}

Cluster::~Cluster() {
  // Nodes must die before machines/simulator (their threads deregister from
  // the CPU model); vector order guarantees it because nodes_ is declared
  // last among owning members... but be explicit:
  nodes_.clear();
}

void Cluster::BuildDeployment() {
  const ClusterConfig& cfg = options_.config;
  const WorkloadSpec& wl = options_.workload;

  initial_nodes_ = cfg.initial_nodes;
  joining_nodes_ = wl.joining_nodes;
  if (wl.kind == WorkloadKind::kBootstrapFresh) {
    // Everyone bootstraps; "initial" nodes are fresh too.
    joining_nodes_ = 0;
  }
  int total = initial_nodes_ + joining_nodes_;
  CHECK_GT(total, 1);
  payloads_ = GossipPayloadPools(static_cast<size_t>(total));
  if (cfg.kv.enabled) {
    kv_payloads_ = std::make_unique<KvPayloadPools>(static_cast<size_t>(total));
  }

  sim_ = std::make_unique<Simulator>(cfg.seed);

  // ---- Machines -----------------------------------------------------------
  MachineSpec spec = cfg.machine_spec;
  spec.ctx_switch_penalty = cfg.CtxSwitchPenalty();
  int num_machines = 1;
  int nodes_per_machine = total;
  if (cfg.run_mode == RunMode::kRealScale) {
    nodes_per_machine = cfg.nodes_per_machine_real;
    num_machines = (total + nodes_per_machine - 1) / nodes_per_machine;
  }
  machines_ = std::make_unique<MachineSet>(sim_.get(), spec, num_machines);

  // ---- Network --------------------------------------------------------------
  network_ = std::make_unique<NetworkModel>(sim_.get(), options_.network,
                                            Mix64(cfg.seed ^ 0x6e7209c4ULL));
  network_->set_same_machine_fn([this](NodeId a, NodeId b) {
    return machines_->SameMachine(a, b);
  });
  // ---- Calculators + PIL -----------------------------------------------------
  calculator_ = MakeCalculator(cfg.calc_version);
  bootstrap_calc_ = MakeCalculator(CalcVersion::kBootstrapC6127);
  calc_function_ = registry_.Register(
      calculator_->name(), calculator_->complexity(),
      SideEffects{},  // pure: memoizable, no I/O, no messages, no locks inside
      /*scale_dependent=*/true);
  bootstrap_function_ =
      registry_.Register(bootstrap_calc_->name(), bootstrap_calc_->complexity(),
                         SideEffects{}, /*scale_dependent=*/true);
  // Profiled-only functions: scale-dependent but NOT PIL-safe — handleSyn
  // and applyStates send/receive gossip, the FD sweep reads the clock. sfind
  // must report them as un-replaceable (§5's safety rule).
  SideEffects network_effects;
  network_effects.network_messages = true;
  SideEffects clock_effects;
  clock_effects.nondeterministic = true;
  gossip_syn_function_ = registry_.Register(
      "gossip.handleSynDigests", "O(N digests)", network_effects, true);
  gossip_apply_function_ = registry_.Register(
      "gossip.applyEndpointStates", "O(states applied)", network_effects, true);
  fd_sweep_function_ = registry_.Register("failureDetector.interpretAll",
                                          "O(N endpoints)", clock_effects, true);

  PilMode pil_mode = PilMode::kDirect;
  if (cfg.run_mode == RunMode::kMemoize) {
    pil_mode = PilMode::kMemoize;
    CHECK_NOTNULL(options_.memo_store) << "memoize mode needs a MemoStore";
  } else if (cfg.run_mode == RunMode::kPilReplay) {
    pil_mode = PilMode::kReplay;
    CHECK_NOTNULL(options_.memo_store) << "replay mode needs a MemoStore";
  }
  pil_ = std::make_unique<PilBoundary>(sim_.get(), pil_mode, options_.memo_store,
                                       spec.core_speed);
  pil_->set_replay_policy(cfg.replay_policy);

  // ---- Fidelity guard ------------------------------------------------------
  if (cfg.guard.enabled) {
    guard_ = std::make_unique<FidelityGuard>(sim_.get(), machines_.get(), cfg.guard);
  }

  // ---- Invariant checker ---------------------------------------------------
  if (cfg.check.enabled) {
    invariants_ = std::make_unique<InvariantRegistry>(cfg.check);
    invariants_->AddBuiltins();
    if (cfg.kv.enabled) {
      kv_history_ = std::make_unique<KvHistory>();
    }
  }

  if (options_.shared_output_cache == nullptr) {
    owned_output_cache_ = std::make_unique<CalcOutputCache>();
  }
  if (options_.enable_trace) {
    trace_ = std::make_unique<TraceRecorder>();
  }

  // ---- Node environment -------------------------------------------------------
  sim_transport_ = std::make_unique<SimTransport>(network_.get());
  env_.sim = sim_.get();
  env_.transport = sim_transport_.get();
  env_.clock = sim_.get();
  env_.flaps = &flaps_;
  env_.pil = pil_.get();
  env_.config = &options_.config;
  env_.calculator = calculator_.get();
  env_.bootstrap_calc = bootstrap_calc_.get();
  env_.calc_function = calc_function_;
  env_.bootstrap_function = bootstrap_function_;
  env_.gossip_syn_function = gossip_syn_function_;
  env_.gossip_apply_function = gossip_apply_function_;
  env_.fd_sweep_function = fd_sweep_function_;
  env_.output_cache = options_.shared_output_cache != nullptr
                          ? options_.shared_output_cache
                          : owned_output_cache_.get();
  env_.trace = trace_.get();
  env_.calc_durations = &calc_durations_;
  env_.calc_invocations = &calc_invocations_;
  env_.calc_executed_real = &calc_executed_real_;
  env_.profile_hook = options_.profile_hook;
  env_.kv_history = kv_history_.get();
  env_.payloads = &payloads_;
  env_.kv_payloads = kv_payloads_.get();

  // ---- Nodes -------------------------------------------------------------------
  Rng node_seeds(HashCombine(cfg.seed, 0xc1057e70ULL));
  std::map<NodeId, std::vector<Token>> settled_members;
  bool fresh = wl.kind == WorkloadKind::kBootstrapFresh;
  if (!fresh) {
    for (NodeId id = 0; id < initial_nodes_; ++id) {
      settled_members[id] = GenerateTokens(id, cfg.vnodes_per_node, cfg.seed);
    }
  }

  for (NodeId id = 0; id < total; ++id) {
    // The intern table is the deployment's name->id authority: interning in
    // boot order makes the dense EndpointId coincide with NodeId, which is
    // the invariant every id-indexed array in the gossip layer relies on.
    EndpointId interned = interner_.Intern("node-" + std::to_string(id));
    CHECK_EQ(interned, id);
    Machine* machine = machines_->Place(id, nodes_per_machine);
    auto node = std::make_unique<Node>(&env_, id, machine, node_seeds.Next());
    nodes_.push_back(std::move(node));
  }

  // Wire OOM -> crash on every machine.
  for (size_t i = 0; i < machines_->size(); ++i) {
    machines_->at(i).memory().set_oom_handler([this](NodeId victim, int64_t bytes) {
      SC_LOG(Warning) << "OOM: node " << victim << " allocating " << bytes;
      if (guard_ != nullptr) {
        // Report at the exact OOM instant rather than the next guard probe.
        guard_->ReportViolation("oom", FidelityVerdict::kInvalid,
                                static_cast<double>(bytes), 0.0, sim_->Now());
      }
      if (victim >= 0 && static_cast<size_t>(victim) < nodes_.size() &&
          !nodes_[static_cast<size_t>(victim)]->crashed()) {
        ++crashed_nodes_;
        nodes_[static_cast<size_t>(victim)]->Crash();
      }
    });
  }

  // ---- Fault injection ---------------------------------------------------
  if (!options_.faults.empty()) {
    FaultInjector::Hooks hooks;
    hooks.clock = sim_.get();
    hooks.links = network_.get();
    hooks.trace = trace_.get();
    hooks.crash_node = [this](NodeId victim) {
      if (victim >= 0 && static_cast<size_t>(victim) < nodes_.size() &&
          !nodes_[static_cast<size_t>(victim)]->crashed()) {
        ++crashed_nodes_;
        nodes_[static_cast<size_t>(victim)]->Crash();
      }
    };
    hooks.restart_node = [this](NodeId victim) {
      if (victim < 0 || static_cast<size_t>(victim) >= nodes_.size()) {
        return;
      }
      Node* node = nodes_[static_cast<size_t>(victim)].get();
      if (!node->crashed()) {
        return;
      }
      ++restarted_nodes_;
      std::vector<NodeId> contacts;
      for (NodeId c = 0; c < std::min(initial_nodes_, 3); ++c) {
        contacts.push_back(c);
      }
      node->Restart(contacts);
    };
    hooks.node_crashed = [this](NodeId victim) {
      return victim >= 0 && static_cast<size_t>(victim) < nodes_.size() &&
             nodes_[static_cast<size_t>(victim)]->crashed();
    };
    hooks.machine_of = [this](NodeId victim) { return machines_->MachineOf(victim); };
    injector_ = std::make_unique<FaultInjector>(options_.faults, std::move(hooks));
    injector_->Arm();
  }

  // Prime knowledge.
  std::map<NodeId, std::vector<Token>> seed_members;
  if (!fresh) {
    for (NodeId id = 0; id < std::min(initial_nodes_, 3); ++id) {
      seed_members[id] = settled_members[id];
    }
  }
  std::vector<NodeId> seed_contacts;
  for (NodeId id = 0; id < std::min(initial_nodes_, 3); ++id) {
    seed_contacts.push_back(id);
  }
  for (NodeId id = 0; id < total; ++id) {
    Node* node = nodes_[static_cast<size_t>(id)].get();
    node->SetSeedContacts(seed_contacts);
    if (!fresh && id < initial_nodes_) {
      node->PrimeSettled(settled_members);
    } else if (!fresh) {
      node->PrimeSeeds(seed_members);
    }
  }
}

void Cluster::ScheduleWorkload() {
  const WorkloadSpec& wl = options_.workload;
  const ClusterConfig& cfg = options_.config;

  // Start settled nodes at t=0.
  bool fresh = wl.kind == WorkloadKind::kBootstrapFresh;
  if (!fresh) {
    for (NodeId id = 0; id < initial_nodes_; ++id) {
      nodes_[static_cast<size_t>(id)]->Start(/*as_joiner=*/false, wl.transition);
    }
  }

  switch (wl.kind) {
    case WorkloadKind::kSteadyState:
      settled_ = true;
      settle_time_ = VirtualTime::Zero();
      break;

    case WorkloadKind::kDecommission: {
      CHECK_LT(wl.target, initial_nodes_);
      NodeId target = wl.target;
      VirtualDuration transition = wl.transition;
      sim_->ScheduleAt(VirtualTime::Zero() + wl.start_at, [this, target, transition] {
        nodes_[static_cast<size_t>(target)]->BeginDecommission(transition);
      });
      break;
    }

    case WorkloadKind::kScaleOut:
    case WorkloadKind::kRebalance: {
      VirtualDuration transition = wl.transition;
      if (wl.kind == WorkloadKind::kRebalance) {
        CHECK_LT(wl.target, initial_nodes_);
        CHECK_GE(joining_nodes_, 1);
        NodeId target = wl.target;
        sim_->ScheduleAt(VirtualTime::Zero() + wl.start_at,
                         [this, target, transition] {
                           nodes_[static_cast<size_t>(target)]->BeginDecommission(
                               transition);
                         });
      }
      VirtualDuration join_start =
          wl.kind == WorkloadKind::kRebalance
              ? wl.start_at + wl.transition + VirtualDuration::Seconds(10)
              : wl.start_at;
      for (int j = 0; j < joining_nodes_; ++j) {
        NodeId id = initial_nodes_ + j;
        VirtualDuration at = join_start + wl.stagger * static_cast<int64_t>(j);
        sim_->ScheduleAt(VirtualTime::Zero() + at, [this, id, transition] {
          nodes_[static_cast<size_t>(id)]->Start(/*as_joiner=*/true, transition);
        });
      }
      break;
    }

    case WorkloadKind::kBootstrapFresh: {
      // Everyone is a fresh joiner knowing only the contact points (nodes
      // 0..2), which are themselves bootstrapping.
      std::vector<NodeId> contacts;
      for (NodeId id = 0; id < std::min(initial_nodes_, 3); ++id) {
        contacts.push_back(id);
      }
      VirtualDuration transition = wl.transition;
      for (NodeId id = 0; id < initial_nodes_; ++id) {
        Node* node = nodes_[static_cast<size_t>(id)].get();
        node->PrimeContacts(contacts);
        VirtualDuration at = wl.stagger * static_cast<int64_t>(id);
        sim_->ScheduleAt(VirtualTime::Zero() + at, [node, transition] {
          node->Start(/*as_joiner=*/true, transition);
        });
      }
      break;
    }

    case WorkloadKind::kFailover: {
      CHECK_LT(wl.target, initial_nodes_);
      NodeId target = wl.target;
      sim_->ScheduleAt(VirtualTime::Zero() + wl.start_at, [this, target] {
        ++crashed_nodes_;
        nodes_[static_cast<size_t>(target)]->Crash();
      });
      break;
    }
  }
  (void)cfg;
}

bool Cluster::WorkloadSettled() const {
  const WorkloadSpec& wl = options_.workload;
  switch (wl.kind) {
    case WorkloadKind::kSteadyState:
      return true;

    case WorkloadKind::kDecommission:
      if (sim_->Now() < VirtualTime::Zero() + wl.start_at + wl.transition) {
        return false;
      }
      for (const auto& node : nodes_) {
        if (node->id() == wl.target || node->crashed()) {
          continue;
        }
        if (node->core().ring().HasNode(wl.target) || !node->core().IsSettledView()) {
          return false;
        }
      }
      return true;

    case WorkloadKind::kScaleOut:
    case WorkloadKind::kRebalance:
    case WorkloadKind::kBootstrapFresh: {
      for (const auto& node : nodes_) {
        if (node->crashed() ||
            (wl.kind == WorkloadKind::kRebalance && node->id() == wl.target)) {
          continue;
        }
        if (!node->core().IsSettledView()) {
          return false;
        }
        // Every live node must be NORMAL in everyone's ring.
        for (const auto& other : nodes_) {
          if (other->crashed() ||
              (wl.kind == WorkloadKind::kRebalance && other->id() == wl.target)) {
            continue;
          }
          if (other->core().my_status() == StatusKind::kNormal &&
              !node->core().ring().HasNode(other->id())) {
            return false;
          }
        }
      }
      return true;
    }

    case WorkloadKind::kFailover: {
      if (sim_->Now() < VirtualTime::Zero() + wl.start_at) {
        return false;
      }
      for (const auto& node : nodes_) {
        if (node->crashed()) {
          continue;
        }
        if (node->core().gossiper().IsAlive(wl.target)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

RunResult Cluster::Run() {
  std::optional<SimProfiler::Timed> run_timer;
  if (options_.profiler != nullptr) {
    run_timer.emplace(options_.profiler, SimProfiler::kPhaseRun);
  }
  ScheduleWorkload();
  const WorkloadSpec& wl = options_.workload;
  VirtualTime horizon = VirtualTime::Zero() + wl.horizon;

  // KV client load: ops against random coordinators (70% reads).
  std::unique_ptr<PeriodicClockTimer> kv_driver;
  if (options_.kv_ops_per_second > 0.0) {
    CHECK(options_.config.kv.enabled) << "kv load needs config.kv.enabled";
    kv_rng_ = std::make_unique<Rng>(Mix64(options_.config.seed ^ 0x4b56ULL));
    if (options_.kv_key_dist == KvKeyDist::kZipf && kv_zipf_cdf_.empty()) {
      // Normalized cumulative weights 1/(k+1)^s; sampling is one uniform
      // draw plus a binary search, so the RNG stream stays in lockstep with
      // the uniform distribution's.
      kv_zipf_cdf_.reserve(options_.kv_key_space);
      double total = 0.0;
      for (uint64_t k = 0; k < options_.kv_key_space; ++k) {
        total += std::pow(static_cast<double>(k + 1), -options_.kv_zipf_s);
        kv_zipf_cdf_.push_back(total);
      }
      for (double& c : kv_zipf_cdf_) c /= total;
    }
    VirtualDuration period =
        VirtualDuration::FromSecondsF(1.0 / options_.kv_ops_per_second);
    kv_driver = std::make_unique<PeriodicClockTimer>(sim_.get(), period, [this] {
      // Pick a running coordinator.
      for (int attempt = 0; attempt < 4; ++attempt) {
        size_t idx = kv_rng_->PickIndex(nodes_.size());
        Node* coordinator = nodes_[idx].get();
        if (coordinator->crashed() || coordinator->kv() == nullptr ||
            coordinator->core().my_status() != StatusKind::kNormal) {
          continue;
        }
        uint64_t key = SampleKvKey();
        ++kv_seq_;
        if (kv_rng_->Bernoulli(0.3)) {
          // Unique per-write values (padded to kKvValueBytes) so the
          // KV history checker can attribute any read result to exactly one
          // write.
          std::string value = StrFormat("v%lld.", static_cast<long long>(kv_seq_));
          if (value.size() < kKvValueBytes) {
            value.resize(kKvValueBytes, 'v');
          }
          coordinator->kv()->Write(key, std::move(value), nullptr);
        } else {
          coordinator->kv()->Read(key, nullptr);
        }
        return;
      }
    });
    kv_driver->Start(VirtualDuration::Millis(10));
  }

  // Settlement polling. A run with a fault plan cannot settle before the
  // last fault has healed — otherwise a steady-state workload would declare
  // itself done at t=0 and stop before the chaos even starts.
  VirtualTime fault_quiet_at = VirtualTime::Zero() + options_.faults.End();
  VirtualTime stop_at = VirtualTime::Max();
  auto checker = std::make_shared<PeriodicClockTimer>(
      sim_.get(), VirtualDuration::Seconds(5),
      [this, &stop_at, horizon, fault_quiet_at] {
        if (!settled_ && sim_->Now() >= fault_quiet_at && WorkloadSettled()) {
          settled_ = true;
          settle_time_ = sim_->Now();
          stop_at = std::min(horizon, sim_->Now() + kCooldown);
        }
        if (settled_ && sim_->Now() >= stop_at) {
          sim_->RequestStop();
        }
      });
  checker->Start(VirtualDuration::Seconds(5));

  // Invariant probing on its own virtual-time cadence (deterministic model
  // inspection; no messages, no CPU charge).
  std::unique_ptr<PeriodicClockTimer> invariant_timer;
  if (invariants_ != nullptr) {
    invariant_timer = std::make_unique<PeriodicClockTimer>(
        sim_.get(), options_.config.check.probe_period,
        [this] { ProbeInvariants(); });
    invariant_timer->Start(options_.config.check.probe_period);
  }

  if (guard_ != nullptr) {
    guard_->Arm();
  }
  sim_->SetWallBudget(options_.wall_budget_seconds);
  sim_->Run(horizon);
  checker->Stop();
  if (invariant_timer != nullptr) {
    invariant_timer->Stop();
  }
  if (guard_ != nullptr) {
    guard_->Disarm();
    // Final sample at the stop instant, so budgets crossed in the last probe
    // period are still observed.
    guard_->Probe();
  }
  // Final invariant probe at the stop instant (post-cooldown state: anything
  // still violated here is sticky, not transitional).
  ProbeInvariants();
  run_timer.reset();

  SimProfiler::Timed collect_timer(options_.profiler, SimProfiler::kPhaseCollect);
  RunResult result;
  CollectResult(&result);
  return result;
}

uint64_t Cluster::SampleKvKey() {
  if (options_.kv_key_dist == KvKeyDist::kZipf) {
    double u = kv_rng_->UniformDouble();
    size_t idx = static_cast<size_t>(
        std::upper_bound(kv_zipf_cdf_.begin(), kv_zipf_cdf_.end(), u) -
        kv_zipf_cdf_.begin());
    if (idx >= kv_zipf_cdf_.size()) idx = kv_zipf_cdf_.size() - 1;
    return static_cast<uint64_t>(idx);
  }
  return static_cast<uint64_t>(kv_rng_->UniformInt(
      0, static_cast<int64_t>(options_.kv_key_space) - 1));
}

void Cluster::ProbeInvariants() {
  if (invariants_ == nullptr) {
    return;
  }
  invariants_->ProbeNodes(sim_->Now(), ViewNodes(nodes_), options_.config,
                          options_.workload.kind,
                          VirtualTime::Zero() + options_.faults.End(), kv_history_.get());
}

void Cluster::CollectResult(RunResult* result) const {
  const ClusterConfig& cfg = options_.config;
  result->mode = cfg.run_mode;
  result->num_nodes = static_cast<int>(nodes_.size());
  result->vnodes_per_node = cfg.vnodes_per_node;

  result->flaps = flaps_.total_flaps();
  result->flapped_pairs = flaps_.flapped_pairs();
  result->FoldNodeTotals(ViewNodes(nodes_));

  result->test_duration = sim_->Now() - VirtualTime::Zero();
  result->settled = settled_;
  result->settle_time = settled_ ? settle_time_ - VirtualTime::Zero()
                                 : result->test_duration;

  double max_util = 0.0;
  int64_t peak_mem = 0;
  bool oom = false;
  VirtualDuration lateness_p99;
  VirtualDuration lateness_max;
  int64_t lateness_early = 0;
  for (size_t i = 0; i < machines_->size(); ++i) {
    Machine& m = const_cast<MachineSet*>(machines_.get())->at(i);
    max_util = std::max(max_util, m.cpu().Utilization());
    peak_mem += m.memory().peak_bytes();
    oom = oom || m.memory().oom_observed();
    lateness_p99 = std::max(lateness_p99, m.lateness().p99());
    lateness_max = std::max(lateness_max, m.lateness().max());
    lateness_early += m.lateness().early_count();
  }
  result->max_cpu_utilization = max_util;
  result->peak_memory_bytes = peak_mem;
  result->oom = oom;
  result->crashed_nodes = crashed_nodes_;
  result->restarted_nodes = restarted_nodes_;
  if (injector_ != nullptr) {
    result->fault_events_applied = injector_->stats().events_applied;
    result->fault_events_healed = injector_->stats().events_healed;
  }
  result->messages_blocked = network_->messages_blocked();
  result->lateness_p99 = lateness_p99;
  result->lateness_max = lateness_max;
  result->lateness_early_count = lateness_early;
  result->watchdog_fired = sim_->wall_budget_exceeded();

  // ---- Fidelity verdict ----------------------------------------------------
  const DriftReport& drift = pil_->drift();
  result->replay_drift.misses = drift.misses;
  result->replay_drift.diverged = drift.diverged;
  result->replay_drift.aborted = drift.aborted;
  if (drift.diverged) {
    const PilFunctionInfo* info = registry_.Find(drift.first_function);
    result->replay_drift.first_function = info != nullptr ? info->name : "?";
    result->replay_drift.first_digest = drift.first_digest.ToHex();
    result->replay_drift.first_at = drift.first_at;
    result->replay_drift.first_call_index = drift.first_call_index;
  }
  if (guard_ != nullptr) {
    if (drift.aborted) {
      guard_->ReportViolation("replay_divergence", FidelityVerdict::kInvalid,
                              static_cast<double>(drift.misses), 0.0,
                              drift.first_at);
    } else if (drift.diverged && cfg.replay_policy == ReplayPolicy::kWarn) {
      guard_->ReportViolation("replay_divergence", FidelityVerdict::kDegraded,
                              static_cast<double>(drift.misses), 0.0,
                              drift.first_at);
    }
    if (result->watchdog_fired) {
      guard_->ReportViolation("watchdog", FidelityVerdict::kInvalid,
                              options_.wall_budget_seconds,
                              options_.wall_budget_seconds, sim_->Now());
    }
    result->fidelity = guard_->report();
  }
  if (invariants_ != nullptr) {
    result->invariants = invariants_->report();
  }

  result->calc_invocations = calc_invocations_;
  result->calc_executed_real = calc_executed_real_;
  result->calc_duration_seconds = calc_durations_;
  RunningStat lock_holds;
  uint64_t dropped = 0;
  for (const auto& node : nodes_) {
    lock_holds.Merge(node->ring_lock().hold_seconds());
    dropped += node->stage_tasks_dropped();
  }
  result->stage_tasks_dropped = dropped;
  result->calc_lock_hold_seconds = lock_holds;

  result->pil = pil_->stats();
  if (options_.memo_store != nullptr) {
    result->memo = options_.memo_store->stats();
  }
  result->messages_sent = network_->messages_sent();
  result->messages_delivered = network_->messages_delivered();
  result->events_executed = sim_->events_executed();

  if (options_.profiler != nullptr) {
    SimProfiler::Counters run;
    run.events_executed = sim_->events_executed();
    run.events_cancelled = sim_->events_cancelled();
    run.event_slot_high_water = sim_->event_slot_high_water();
    run.messages_sent = network_->messages_sent();
    for (const auto& node : nodes_) {
      const Gossiper& g = node->core().gossiper();
      run.gossip_syn_handled += g.syn_handled();
      run.gossip_states_applied += g.states_applied();
      run.gossip_updates_applied += g.updates_applied();
      run.digest_builds += g.digest_builds();
      run.digest_entries_refreshed += g.digest_entries_refreshed();
      run.digest_full_rebuilds += g.digest_full_rebuilds();
      run.gossip_digest_bytes_sent += node->core().digest_bytes_sent();
      run.gossip_arena_bytes += node->arena_bytes_reserved();
      run.endpoint_store_bytes += g.endpoint_store_bytes();
      run.fd_window_bytes += node->core().failure_detector().window_bytes();
    }
    run.payload_reuses =
        payloads_.syn.reuses() + payloads_.ack.reuses() + payloads_.ack2.reuses();
    run.payload_allocs =
        payloads_.syn.allocs() + payloads_.ack.allocs() + payloads_.ack2.allocs();
    run.intern_table_size = interner_.size();
    run.intern_table_bytes = interner_.ApproxBytes();
    result->profile = run;
    result->has_profile = true;
  }
}

}  // namespace scalecheck
