#include "src/cluster/node.h"

#include <utility>

#include "src/cluster/cluster.h"
#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/gossip/messages.h"

namespace scalecheck {

const CalcOutputCache::Entry* CalcOutputCache::Find(CalcVersion version,
                                                    const DigestValue& digest) const {
  Key key{static_cast<int>(version), digest};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return nullptr;
  }
  ++shard.hits;
  return &it->second;
}

void CalcOutputCache::Put(CalcVersion version, const DigestValue& digest, Entry entry) {
  Key key{static_cast<int>(version), digest};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // First put wins; concurrent writers compute identical values anyway.
  shard.map.emplace(std::move(key), std::move(entry));
}

uint64_t CalcOutputCache::hits() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.hits;
  }
  return total;
}

size_t CalcOutputCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

Node::Node(Env* env, NodeId self, Machine* machine, uint64_t seed)
    : env_(env),
      machine_(machine),
      ring_lock_(env->sim, StrFormat("ring-lock/%d", self)),
      gossip_task_(env->sim, machine, StrFormat("n%d/gossip-task", self)),
      gossip_stage_(env->sim, machine, StrFormat("n%d/gossip-stage", self)),
      calc_thread_(env->config->calc_placement == CalcPlacement::kInlineGossipStage
                       ? nullptr
                       : std::make_unique<SimThread>(env->sim, machine,
                                                     StrFormat("n%d/calc", self))),
      kv_stage_(env->config->kv.enabled
                    ? std::make_unique<SimThread>(env->sim, machine,
                                                  StrFormat("n%d/kv-stage", self))
                    : nullptr),
      kv_stage_adapter_(kv_stage_ != nullptr ? std::make_unique<SimStage>(kv_stage_.get())
                                             : nullptr),
      core_(self, seed,
            ProtocolNode::Deps{
                .config = env->config,
                .transport = env->transport,
                .clock = env->clock,
                .host = this,
                .kv_stage = kv_stage_adapter_.get(),
                // Data-path footprint (WAL + memtable/runs + hint queue) lands
                // in the machine memory model like the gossip arena below:
                // deltas follow the deterministic event order, so
                // FidelityGuard memory verdicts and colocation OOMs see the
                // storage bytes deterministically.
                .kv_charge =
                    [this](int64_t delta) {
                      if (!started_ || core_.crashed()) {
                        return;
                      }
                      if (delta > 0) {
                        machine_->memory().Allocate(id(), "kv-storage", delta);
                      } else {
                        machine_->memory().Release(id(), "kv-storage", -delta);
                      }
                    },
                .kv_history = env->kv_history,
                .kv_payloads = env->kv_payloads,
            }) {
  CHECK_NOTNULL(machine);
  // Charge gossip-scratch arena growth to the memory model as it happens.
  // Growth points are deterministic (they follow the deterministic event
  // order), so the charges — and FidelityGuard's memory verdict — are too.
  // Pre-start growth is folded into the bulk charge in Start()/Restart();
  // post-crash growth is impossible (the node's threads are dead).
  core_.gossiper().scratch_arena().SetGrowHook([this](size_t block_bytes) {
    if (started_ && !core_.crashed()) {
      machine_->memory().Allocate(id(), "gossip-arena", static_cast<int64_t>(block_bytes));
    }
  });
}

Node::~Node() = default;

void Node::PrimeSettled(const std::map<NodeId, std::vector<Token>>& members) {
  CHECK(!started_);
  core_.PrimeSettled(members);
}

void Node::PrimeSeeds(const std::map<NodeId, std::vector<Token>>& seed_members) {
  CHECK(!started_);
  core_.PrimeSeeds(seed_members);
}

void Node::PrimeContacts(const std::vector<NodeId>& contacts) {
  CHECK(!started_);
  core_.PrimeContacts(contacts);
}

void Node::ChargeProcessMemory() {
  machine_->memory().Allocate(id(), "runtime", env_->config->RuntimeOverheadBytes());
  machine_->memory().Allocate(
      id(), "endpoints",
      static_cast<int64_t>(core_.gossiper().endpoints().size()) *
          env_->config->endpoint_state_bytes);
  machine_->memory().Allocate(id(), "gossip-arena",
                              static_cast<int64_t>(arena_bytes_reserved()));
}

void Node::StartGossipTimer() {
  gossip_timer_ = std::make_unique<PeriodicClockTimer>(
      env_->clock, env_->config->gossip_interval, [this] { GossipRound(); });
  gossip_timer_->Start(core_.DrawRoundPhase());
}

void Node::Start(bool as_joiner, VirtualDuration transition) {
  CHECK(!started_);
  started_ = true;
  ChargeProcessMemory();
  env_->transport->RegisterNode(id(), [this](const Message& msg) { OnMessage(msg); });
  if (kv() != nullptr) {
    kv()->Start();  // arms the anti-entropy scheduler when repair is on
  }

  if (as_joiner) {
    core_.SetOwnStatus(StatusKind::kBootstrapping);
    // BOOT -> NORMAL after the transition period. The continuation belongs to
    // the incarnation that scheduled it: if the node crashes and restarts in
    // the window, the restarted process must not be promoted by a timer armed
    // by its dead predecessor.
    const int64_t gen = core_.generation();
    env_->clock->ScheduleAfter(transition, [this, gen] {
      if (!core_.crashed() && core_.generation() == gen) {
        core_.SetOwnStatus(StatusKind::kNormal);
        core_.MaybeRecalc();
      }
    });
  }
  StartGossipTimer();
}

void Node::BeginDecommission(VirtualDuration transition) {
  CHECK(started_);
  core_.SetOwnStatus(StatusKind::kLeaving);
  core_.MaybeRecalc();
  // Both deferred steps are guarded on the scheduling incarnation: a crash +
  // restart inside the transition window must not let the stale continuation
  // announce LEFT (or silence gossip) on behalf of the fresh process.
  const int64_t gen = core_.generation();
  env_->clock->ScheduleAfter(transition, [this, gen] {
    if (!core_.crashed() && core_.generation() == gen) {
      core_.SetOwnStatus(StatusKind::kLeft);
      core_.MaybeRecalc();
    }
  });
  // Keep gossiping LEFT for a grace period so it disseminates, then stop.
  env_->clock->ScheduleAfter(transition + VirtualDuration::Seconds(20), [this, gen] {
    if (!core_.crashed() && core_.generation() == gen) {
      gossip_timer_->Stop();
      env_->transport->UnregisterNode(id());
    }
  });
}

void Node::Crash() {
  if (core_.crashed()) {
    return;
  }
  core_.Crash();
  if (env_->trace != nullptr) {
    env_->trace->Record(env_->clock->Now(), TraceKind::kNodeCrash, id());
  }
  if (gossip_timer_ != nullptr) {
    gossip_timer_->Stop();
  }
  env_->transport->UnregisterNode(id());
  for (SimThread* thread : {&gossip_task_, &gossip_stage_, calc_thread_.get(), kv_stage_.get()}) {
    if (thread != nullptr) {
      thread->Kill();
    }
  }
  // A dead process holds no locks: force-release the ring lock (abandoning
  // any waiters, whose threads just died with it) so survivors — and a later
  // restart — are not wedged behind a lock nobody can ever release.
  ring_lock_.ResetForCrash();
  if (kv() != nullptr) {
    // Process death for the data path: pending group-commit acks and the
    // volatile hint queue vanish; with the WAL on, so do the unsynced tail
    // and the in-memory storage engine.
    kv()->OnCrash();
  }
  machine_->memory().ReleaseAll(id());
}

void Node::Restart(const std::vector<NodeId>& contacts) {
  CHECK(started_);
  // Fresh process: all in-memory protocol state is rebuilt by the core, and
  // the threads come back.
  core_.Restart(contacts);
  if (env_->trace != nullptr) {
    env_->trace->Record(env_->clock->Now(), TraceKind::kNodeRestart, id(), kInvalidNode,
                        core_.generation());
  }
  for (SimThread* thread : {&gossip_task_, &gossip_stage_, calc_thread_.get(), kv_stage_.get()}) {
    if (thread != nullptr) {
      thread->Revive();
    }
  }
  partition_services_allocated_ = false;
  partition_services_bytes_ = 0;

  // The arena survives the crash (it is process memory of the simulator, and
  // its blocks are reused by the fresh incarnation); ChargeProcessMemory
  // re-charges the footprint the restarted process would re-acquire.
  ChargeProcessMemory();
  env_->transport->RegisterNode(id(), [this](const Message& msg) { OnMessage(msg); });
  if (kv() != nullptr) {
    // With the WAL on, this replays the durable prefix into a fresh storage
    // engine — the acked writes the kv-durability invariant audits.
    kv()->OnRestart();
  }
  StartGossipTimer();
}

// ---- Message delivery ---------------------------------------------------------

void Node::OnMessage(const Message& msg) {
  if (core_.crashed()) {
    return;
  }
  switch (msg.type) {
    case kGossipSyn:
      HandleSynMessage(msg);
      break;
    case kGossipAck:
      HandleAckMessage(msg);
      break;
    case kGossipAck2:
      HandleAck2Message(msg);
      break;
    default:
      core_.HandleInline(msg);  // the data path stages its own work
  }
}

void Node::GossipRound() {
  if (core_.crashed()) {
    return;
  }
  Job round("gossip.round");
  round.IntendedAt(env_->clock->Now());
  round.Run([this] { core_.gossiper().IncrementHeartbeat(); })
      .Compute([this] { return core_.gossiper().EstimateRoundWork(env_->config->gossip_costs); })
      .Run([this] { core_.ForEachSynTarget([this](NodeId peer) { SendSyn(peer); }); });
  gossip_task_.Enqueue(std::move(round));

  FailureSweep();
}

void Node::FailureSweep() {
  Job sweep("gossip.fd-sweep");
  sweep
      .Compute([this] {
        return env_->config->fd_check_cost_per_endpoint *
               static_cast<WorkUnits>(core_.gossiper().endpoints().size());
      })
      .Run([this] {
        core_.SweepFailures();
        if (env_->profile_hook) {
          size_t endpoints = core_.gossiper().endpoints().size();
          env_->profile_hook(env_->fd_sweep_function,
                             env_->config->fd_check_cost_per_endpoint *
                                 static_cast<int64_t>(endpoints),
                             endpoints);
        }
      });
  gossip_task_.Enqueue(std::move(sweep));
}

void Node::SendSyn(NodeId peer) { core_.SendSyn(peer, env_->payloads->syn.Acquire()); }

void Node::HandleSynMessage(const Message& msg) {
  auto syn = std::static_pointer_cast<const SynPayload>(msg.payload);
  NodeId peer = msg.from;
  Job job("gossip.handle-syn");
  if (!env_->config->gossip_stage_timeout.IsZero()) {
    job.ExpiresAfter(env_->config->gossip_stage_timeout);
  }
  job.Compute([this, syn] {
       return Gossiper::EstimateSynWork(*syn, env_->config->gossip_costs);
     })
      .Run([this, syn, peer] {
        core_.AnswerSyn(peer, *syn, env_->payloads->ack.Acquire());
        if (env_->profile_hook) {
          env_->profile_hook(env_->gossip_syn_function,
                             Gossiper::EstimateSynWork(*syn, env_->config->gossip_costs),
                             core_.gossiper().endpoints().size());
        }
      });
  gossip_stage_.Enqueue(std::move(job));
}

void Node::HandleAckMessage(const Message& msg) {
  auto ack = std::static_pointer_cast<const AckPayload>(msg.payload);
  NodeId peer = msg.from;
  Job job("gossip.handle-ack");
  if (!env_->config->gossip_stage_timeout.IsZero()) {
    job.ExpiresAfter(env_->config->gossip_stage_timeout);
  }
  job.Compute([this, ack] {
    return Gossiper::EstimateAckWork(*ack, env_->config->gossip_costs);
  });
  if (UsesRingLock()) {
    job.Lock(&ring_lock_);
  }
  job.Run([this, ack] {
    core_.MergeStates(ack->states);
    if (env_->profile_hook) {
      env_->profile_hook(env_->gossip_apply_function,
                         Gossiper::EstimateAckWork(*ack, env_->config->gossip_costs),
                         core_.gossiper().endpoints().size());
    }
  });
  if (UsesRingLock()) {
    job.Unlock(&ring_lock_);
  }
  job.Run([this, ack, peer] {
    core_.FinishAck(peer, *ack, [this] { return env_->payloads->ack2.Acquire(); });
  });
  gossip_stage_.Enqueue(std::move(job));
}

void Node::HandleAck2Message(const Message& msg) {
  auto ack2 = std::static_pointer_cast<const Ack2Payload>(msg.payload);
  Job job("gossip.handle-ack2");
  if (!env_->config->gossip_stage_timeout.IsZero()) {
    job.ExpiresAfter(env_->config->gossip_stage_timeout);
  }
  job.Compute([this, ack2] {
    return Gossiper::EstimateAck2Work(*ack2, env_->config->gossip_costs);
  });
  if (UsesRingLock()) {
    job.Lock(&ring_lock_);
  }
  job.Run([this, ack2] { core_.MergeStates(ack2->states); });
  if (UsesRingLock()) {
    job.Unlock(&ring_lock_);
  }
  job.Run([this] { core_.MaybeRecalc(); });
  gossip_stage_.Enqueue(std::move(job));
}

// ---- ProtocolNode::Host ----------------------------------------------------------

void Node::OnConviction(NodeId ep, VirtualTime now) {
  env_->flaps->RecordDown(id(), ep, now);
  if (env_->trace != nullptr) {
    env_->trace->Record(now, TraceKind::kConviction, id(), ep);
  }
}

void Node::OnRescue(NodeId ep, bool restarted) {
  VirtualTime now = env_->clock->Now();
  env_->flaps->RecordUp(id(), ep, now);
  if (!restarted && env_->trace != nullptr) {
    env_->trace->Record(now, TraceKind::kRescue, id(), ep);
  }
}

void Node::OnStatusTransition(NodeId ep, StatusKind new_status) {
  if (env_->trace != nullptr) {
    env_->trace->Record(env_->clock->Now(), TraceKind::kStatusChange, id(), ep,
                        static_cast<int64_t>(new_status), StatusKindName(new_status));
  }
}

void Node::OnPendingSetChanged() {
  bool want = !core_.pending_changes().empty();
  if (want == partition_services_allocated_) {
    return;
  }
  if (want) {
    // §6: the rebalance protocol allocates partition services up front. The
    // space-oblivious variant allocates (N-1)*P of them; the fixed code P.
    int64_t services =
        env_->config->space_oblivious_rebalance
            ? static_cast<int64_t>(core_.gossiper().endpoints().size() - 1) *
                  env_->config->vnodes_per_node
            : env_->config->vnodes_per_node;
    partition_services_bytes_ = services * env_->config->partition_service_bytes;
    machine_->memory().Allocate(id(), "partition-services", partition_services_bytes_);
    partition_services_allocated_ = true;
  } else {
    machine_->memory().Release(id(), "partition-services", partition_services_bytes_);
    partition_services_bytes_ = 0;
    partition_services_allocated_ = false;
  }
}

void Node::RunCalculator() {
  struct RecalcState {
    TokenRing ring_copy;
    CalcInput input;
    bool bootstrap_path = false;
    bool digest_ready = false;
    DigestValue digest;
  };
  auto state = std::make_shared<RecalcState>();

  auto digest_fn = [state] {
    if (!state->digest_ready) {
      state->digest = state->input.ComputeDigest();
      state->digest_ready = true;
    }
    return state->digest;
  };
  auto compute_fn = [this, state] {
    return ComputeCalc(state->input, state->bootstrap_path);
  };
  auto apply_fn = [this](const std::vector<uint8_t>& output, bool from_memo) {
    PendingRanges decoded;
    if (!PendingRanges::Decode(output, &decoded)) {
      SC_LOG(Error) << "node " << id() << ": undecodable pending-range output";
      return;
    }
    core_.set_pending_ranges(std::move(decoded));
  };

  // Runs when the job reaches the calc thread: snapshot the input from the
  // view as it is then (input.ring points at the live ring).
  auto prepare = [this, state] {
    ++*env_->calc_invocations;
    if (env_->trace != nullptr) {
      env_->trace->Record(env_->clock->Now(), TraceKind::kCalcStart, id(), kInvalidNode,
                          static_cast<int64_t>(core_.pending_changes().size()));
    }
    state->bootstrap_path =
        core_.ring().num_nodes() < static_cast<size_t>(env_->config->replication_factor);
    core_.BeginCalc(&state->input);
  };
  auto finish = [this] {
    if (env_->trace != nullptr) {
      env_->trace->Record(env_->clock->Now(), TraceKind::kCalcDone, id(), kInvalidNode,
                          static_cast<int64_t>(core_.pending_ranges().size()));
    }
    core_.FinishCalc();
  };

  Job job("ring.recalc");
  switch (env_->config->calc_placement) {
    case CalcPlacement::kInlineGossipStage:
      job.Run(prepare);
      break;
    case CalcPlacement::kSeparateThreadCoarseLock:
      // The C5456 bug: the whole calculation (or its PIL sleep) happens with
      // the ring lock held.
      job.Lock(&ring_lock_);
      job.Run(prepare);
      break;
    case CalcPlacement::kSeparateThreadClone:
      // The C5456 fix: clone under the lock, release, then compute.
      job.Lock(&ring_lock_);
      job.Compute([this] { return static_cast<WorkUnits>(core_.ring().num_entries()) * 6; });
      job.Run([prepare, state, this] {
        prepare();
        state->ring_copy = core_.ring().Clone();
        state->input.ring = &state->ring_copy;
      });
      job.Unlock(&ring_lock_);
      break;
  }

  // The PIL boundary itself. The function id must distinguish the two code
  // paths (they memoize separately).
  PilFunctionId main_id = env_->calc_function;
  PilFunctionId boot_id = env_->bootstrap_function;
  // We cannot know the path before prepare() runs, so wrap the boundary with
  // the main id and fold the path into the digest: same effect, stable keys.
  auto path_digest_fn = [digest_fn, state, boot_id, main_id] {
    DigestValue d = digest_fn();
    d.lo = HashCombine(d.lo, state->bootstrap_path ? boot_id : main_id);
    return d;
  };
  env_->pil->Apply(&job, main_id, path_digest_fn, compute_fn, apply_fn);

  if (env_->config->calc_placement == CalcPlacement::kSeparateThreadCoarseLock) {
    job.Unlock(&ring_lock_);
  }
  job.Run(finish);
  CalcThread()->Enqueue(std::move(job));
}

PilBoundary::ComputeOutput Node::ComputeCalc(const CalcInput& input,
                                             bool bootstrap_path) {
  PendingRangeCalculator* calc =
      bootstrap_path ? env_->bootstrap_calc : env_->calculator;
  DigestValue digest = input.ComputeDigest();

  PilBoundary::ComputeOutput out;
  const CalcOutputCache::Entry* cached =
      env_->output_cache == nullptr ? nullptr
                                    : env_->output_cache->Find(calc->version(), digest);
  int64_t ops = 0;
  bool executed = false;
  if (cached != nullptr) {
    out.output = cached->output;
    out.work = cached->work;
    ops = cached->ops;
    executed = cached->executed;
  } else {
    PendingRangeCalculator::RunOutcome outcome =
        calc->Run(input, env_->config->execute_threshold_ops);
    out.output = outcome.pending.Encode();
    out.work = outcome.work;
    ops = outcome.ops;
    executed = outcome.executed;
    if (env_->output_cache != nullptr) {
      env_->output_cache->Put(calc->version(), digest,
                              CalcOutputCache::Entry{out.output, out.work, ops, executed});
    }
  }
  if (executed) {
    ++*env_->calc_executed_real;
  }
  env_->calc_durations->Add(env_->pil->WorkToDuration(out.work).seconds());
  if (env_->profile_hook) {
    env_->profile_hook(bootstrap_path ? env_->bootstrap_function : env_->calc_function,
                       ops, input.ring->num_entries());
  }
  return out;
}

}  // namespace scalecheck
