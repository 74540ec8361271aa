#include "src/net/real_cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/faults/fault_injector.h"
#include "src/ring/token_ring.h"

namespace scalecheck {
namespace {

// Takes every node's monitor without ever blocking on one while holding
// another, std::lock's back-off: block on one, try the rest, and on a miss
// release them all and start over from the one that was busy. Locking in id
// order instead could deadlock against a node blocked in send() to a peer
// whose socket reader waits on a monitor the probe already holds.
std::vector<std::unique_lock<std::mutex>> LockAllMonitors(
    const std::vector<std::unique_ptr<RealNode>>& nodes) {
  std::vector<std::unique_lock<std::mutex>> locks;
  for (const auto& node : nodes) locks.emplace_back(node->monitor(), std::defer_lock);
  for (size_t first = 0, busy = 0; !locks.empty(); first = busy) {
    locks[first].lock();
    busy = locks.size();
    for (size_t i = 0; i < locks.size() && busy == locks.size(); ++i) {
      if (i != first && !locks[i].try_lock()) busy = i;
    }
    if (busy == locks.size()) break;
    for (auto& lock : locks) {
      if (lock.owns_lock()) lock.unlock();
    }
    std::this_thread::yield();
  }
  return locks;
}

}  // namespace

RealCluster::RealCluster(const Options& options)
    : options_(options),
      quiet_at_(VirtualTime::Zero() + options.convergence_timeout) {
  if (options_.config.check.enabled) {
    invariants_ = std::make_unique<InvariantRegistry>(options_.config.check);
    invariants_->AddBuiltins();
    if (options_.config.kv.enabled) {
      kv_history_ = std::make_unique<KvHistory>();
    }
  }
  std::map<NodeId, std::vector<Token>> seed_members;
  std::vector<NodeId> seed_ids;
  int seeds = std::min(options_.seeds, options_.config.initial_nodes);
  for (NodeId id = 0; id < seeds; ++id) {
    seed_members[id] =
        GenerateTokens(id, options_.config.vnodes_per_node, options_.config.seed);
    seed_ids.push_back(id);
  }
  for (NodeId id = 0; id < options_.config.initial_nodes; ++id) {
    // Same boot-order interning contract as the simulated Cluster: the
    // human-readable address exists only here and in logs; every layer below
    // (gossip, ring, transport) speaks dense EndpointIds == NodeIds.
    EndpointId interned = interner_.Intern("127.0.0.1#" + std::to_string(id));
    CHECK_EQ(interned, id);
    auto node = std::make_unique<RealNode>(id, options_.config, &transport_, &clock_,
                                           &flaps_, &flaps_mu_, kv_history_.get());
    node->PrimeSeeds(seed_members, seed_ids);
    nodes_.push_back(std::move(node));
  }
}

RealCluster::~RealCluster() {
  for (auto& node : nodes_) {
    node->Stop();
  }
  clock_.Shutdown();
  transport_.Shutdown();
}

bool RealCluster::AllConverged() const {
  // Every node knows all n endpoints, all alive and NORMAL, and its ring
  // holds all n nodes.
  const size_t n = static_cast<size_t>(options_.config.initial_nodes);
  for (const auto& node : nodes_) {
    bool converged = node->WithCore([n](const ProtocolNode& core) {
      const Gossiper& gossiper = core.gossiper();
      if (gossiper.endpoints().size() != n || core.ring().num_nodes() != n) {
        return false;
      }
      for (const auto& [ep, state] : gossiper.endpoints()) {
        if (state.Status() != StatusKind::kNormal ||
            (ep != core.id() && !gossiper.IsAlive(ep))) {
          return false;
        }
      }
      return true;
    });
    if (!converged) {
      return false;
    }
  }
  return true;
}

void RealCluster::ProbeInvariants() {
  if (invariants_ == nullptr) {
    return;
  }
  std::vector<std::unique_lock<std::mutex>> held = LockAllMonitors(nodes_);
  invariants_->ProbeNodes(clock_.Now(), ViewNodes(nodes_), options_.config,
                          WorkloadKind::kSteadyState, quiet_at_, kv_history_.get());
}

void RealCluster::PollInvariants() {
  if (clock_.Now() < next_probe_) {
    return;
  }
  ProbeInvariants();
  next_probe_ = clock_.Now() + options_.config.check.probe_period;
}

void RealCluster::DwellUntil(VirtualTime until) {
  while (clock_.Now() <= until) {
    PollInvariants();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

RunResult RealCluster::Run() {
  for (auto& node : nodes_) {
    node->Start();
  }

  // Poll for convergence. Polling (vs. condition-variable plumbing through
  // every node) keeps the measurement honest: nodes run undisturbed and the
  // observer samples, as an external prober would.
  bool settled = false;
  VirtualTime settle_time;
  // The first probe comes at boot, so every stability window the registry
  // keeps opens when the node came up.
  next_probe_ = clock_.Now();
  while (clock_.Now().nanos() < options_.convergence_timeout.nanos()) {
    PollInvariants();
    if (AllConverged()) {
      settled = true;
      settle_time = clock_.Now();
      quiet_at_ = settle_time;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!settled) {
    SC_LOG(Warning) << "real cluster: " << options_.config.initial_nodes
                    << " nodes did not converge within "
                    << options_.convergence_timeout.ToString();
  }

  // ---- Fault phase: replay the plan against the sockets, then demand the
  // cluster heal. Plan times are authored in simulator gossip rounds (1s
  // interval); rescale by this carrier's interval so the same FaultPlan
  // means the same protocol-time schedule on both carriers.
  std::unique_ptr<FaultInjector> injector;
  bool healed = true;
  if (settled && !options_.faults.empty()) {
    const double scale =
        static_cast<double>(options_.config.gossip_interval.nanos()) / 1e9;
    auto rescale = [scale](VirtualDuration d) {
      return VirtualDuration::Nanos(
          static_cast<int64_t>(static_cast<double>(d.nanos()) * scale));
    };
    FaultPlan plan;
    plan.name = options_.faults.name;
    for (const FaultEvent& ev : options_.faults.events) {
      if (ev.kind != FaultKind::kPartition &&
          ev.kind != FaultKind::kLinkDegrade) {
        SC_LOG(Warning) << "real cluster: skipping unsupported fault kind "
                        << FaultKindName(ev.kind)
                        << " (no process/machine model on this carrier)";
        continue;
      }
      FaultEvent scaled = ev;
      scaled.at = rescale(ev.at);
      scaled.duration = rescale(ev.duration);
      plan.events.push_back(scaled);
    }
    if (!plan.empty()) {
      quiet_at_ = clock_.Now() + plan.End();
      FaultInjector::Hooks hooks;
      hooks.clock = &clock_;
      hooks.links = &transport_;
      injector = std::make_unique<FaultInjector>(std::move(plan), hooks);
      injector->Arm();
      // Ride out the plan and the rounds-denominated heal bound, so the
      // registry's partition-heals check is armed by the time it judges.
      DwellUntil(quiet_at_ +
                 options_.config.gossip_interval * options_.config.check.partition_heal_rounds);
      // Healed means the heals have run on the clock's timer thread, not just
      // come due: a loaded host fires them late, and a view that never
      // convicted the islanded node would otherwise pass as healed while the
      // partition is still up.
      FaultInjector::Stats faults = injector->stats();
      healed = faults.events_healed >= faults.events_applied && AllConverged();
    }
  }

  // Optional KV smoke: quorum writes then reads, round-robin coordinators.
  // Each coordinator's KvService counts the requests and their outcomes; the
  // smoke only waits for them.
  if (settled && healed && options_.config.kv.enabled && options_.kv_ops > 0) {
    std::mutex done_mu;
    std::condition_variable done_cv;
    int outstanding = 0;
    auto issue = [&](bool is_write, int i) {
      RealNode* coordinator = nodes_[static_cast<size_t>(i) % nodes_.size()].get();
      uint64_t key = static_cast<uint64_t>(i) * 7919;
      {
        std::lock_guard<std::mutex> lock(done_mu);
        ++outstanding;
      }
      auto done = [&](KvOutcome, std::string) {
        std::lock_guard<std::mutex> lock(done_mu);
        --outstanding;
        done_cv.notify_all();
      };
      coordinator->WithCore([&](ProtocolNode& core) {
        if (is_write) {
          core.kv()->Write(key, StrFormat("v%d", i), std::move(done));
        } else {
          core.kv()->Read(key, std::move(done));
        }
      });
    };
    for (int i = 0; i < options_.kv_ops; ++i) {
      issue(/*is_write=*/true, i);
    }
    for (int i = 0; i < options_.kv_ops; ++i) {
      issue(/*is_write=*/false, i);
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return outstanding == 0; });
  }

  // ---- Anti-entropy phase: with repair on, dwell until replica-convergence's
  // data facet audits the smoke's writes, a convergence grace after the last
  // one concluded. Repair then has had the grace to converge every natural
  // replica, and an unthrottled storm the grace to exceed its budget.
  if (settled && healed && options_.config.kv.enabled && options_.config.kv.repair &&
      options_.kv_ops > 0) {
    DwellUntil(clock_.Now() + options_.config.check.convergence_grace);
  }

  VirtualTime end = clock_.Now();
  ProbeInvariants();
  RunResult result;
  {
    std::vector<std::unique_lock<std::mutex>> held = LockAllMonitors(nodes_);
    result.FoldNodeTotals(ViewNodes(nodes_));
  }
  for (auto& node : nodes_) {
    node->Stop();
  }
  // The injector's filter closure dies with this frame; nodes are stopped,
  // but clear it so the member transport never outlives what it points at.
  transport_.SetLinkFilter(nullptr);

  result.mode = RunMode::kRealSockets;
  result.num_nodes = options_.config.initial_nodes;
  result.vnodes_per_node = options_.config.vnodes_per_node;
  result.settled = settled;
  result.settle_time = settled ? (settle_time - VirtualTime::Zero()) : VirtualDuration::Zero();
  result.test_duration = end - VirtualTime::Zero();
  {
    std::lock_guard<std::mutex> lock(flaps_mu_);
    result.flaps = flaps_.total_flaps();
    result.flapped_pairs = flaps_.flapped_pairs();
  }
  result.messages_sent = transport_.messages_sent();
  result.messages_delivered = transport_.messages_delivered();
  result.messages_blocked = transport_.messages_blocked();
  if (injector != nullptr) {
    FaultInjector::Stats stats = injector->stats();
    result.fault_events_applied = stats.events_applied;
    result.fault_events_healed = stats.events_healed;
  }
  if (invariants_ != nullptr) {
    result.invariants = invariants_->report();
  }
  return result;
}

}  // namespace scalecheck
