#include "src/net/real_cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/faults/fault_injector.h"
#include "src/kv/kv_config.h"
#include "src/ring/token_ring.h"

namespace scalecheck {
namespace {

// Snapshots taken through RealNode::WithCore (under the node mutex).
size_t Unreachable(const RealNode& node) {
  return node.WithCore([](const ProtocolNode& core) {
    return core.gossiper().UnreachableEndpointsView().size();
  });
}

KvStats KvStatsOf(const RealNode& node) {
  return node.WithCore([](const ProtocolNode& core) {
    return core.kv() == nullptr ? KvStats{} : core.kv()->stats();
  });
}

// The local storage version of `key` (0 = absent or KV off).
int64_t KvTimestampOf(const RealNode& node, uint64_t key) {
  return node.WithCore([key](const ProtocolNode& core) {
    return core.kv() == nullptr ? 0 : core.kv()->storage().TimestampOf(key);
  });
}

}  // namespace

RealCluster::RealCluster(const Options& options) : options_(options) {
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
    auto node = std::make_unique<RealNode>(id, options_.config, &transport_,
                                           &clock_, &flaps_, &flaps_mu_);
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

RunResult RealCluster::Run() {
  for (auto& node : nodes_) {
    node->Start();
  }

  // Poll for convergence. Polling (vs. condition-variable plumbing through
  // every node) keeps the measurement honest: nodes run undisturbed and the
  // observer samples, as an external prober would.
  bool settled = false;
  VirtualTime settle_time;
  while (clock_.Now().nanos() < options_.convergence_timeout.nanos()) {
    if (AllConverged()) {
      settled = true;
      settle_time = clock_.Now();
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
  bool fault_phase_ran = false;
  bool healed = true;
  int64_t islanded = 0;
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
      fault_phase_ran = true;
      const VirtualTime armed_at = clock_.Now();
      const VirtualTime quiet_at = armed_at + plan.End();
      const VirtualTime deadline =
          quiet_at +
          options_.config.gossip_interval * options_.partition_heal_rounds;
      FaultInjector::Hooks hooks;
      hooks.clock = &clock_;
      hooks.links = &transport_;
      injector = std::make_unique<FaultInjector>(std::move(plan), hooks);
      injector->Arm();
      // Ride out the plan, then poll for reconvergence within the
      // rounds-denominated heal bound — the real-mode probe of the
      // partition-heals invariant.
      healed = false;
      while (clock_.Now() < deadline) {
        // Quiet means the heals have run on the clock's timer thread, not
        // just come due: a loaded host fires them late, and a view that never
        // convicted the islanded node would otherwise pass as healed while
        // the partition is still up.
        FaultInjector::Stats faults = injector->stats();
        if (clock_.Now() >= quiet_at && faults.events_healed >= faults.events_applied &&
            AllConverged()) {
          healed = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!healed) {
        healed = AllConverged();  // final check at the deadline itself
      }
      for (const auto& node : nodes_) {
        islanded += static_cast<int64_t>(Unreachable(*node));
      }
      if (!healed) {
        SC_LOG(Warning) << "real cluster: partition did not heal within "
                        << options_.partition_heal_rounds
                        << " gossip rounds of fault quiescence (" << islanded
                        << " endpoints still unreachable)";
      }
    }
  }

  // Optional KV smoke: quorum writes then reads, round-robin coordinators.
  int64_t kv_issued = 0;
  LogHistogram kv_latency{/*base=*/1e5, /*growth=*/1.5, /*num_buckets=*/80};
  if (settled && healed && options_.config.kv.enabled && options_.kv_ops > 0) {
    std::mutex done_mu;
    std::condition_variable done_cv;
    int outstanding = 0;
    auto issue = [&](bool is_write, int i) {
      RealNode* coordinator = nodes_[static_cast<size_t>(i) % nodes_.size()].get();
      uint64_t key = static_cast<uint64_t>(i) * 7919;
      VirtualTime started = clock_.Now();
      {
        std::lock_guard<std::mutex> lock(done_mu);
        ++outstanding;
      }
      ++kv_issued;
      auto done = [&, started](KvOutcome outcome, std::string value) {
        (void)outcome;
        (void)value;
        std::lock_guard<std::mutex> lock(done_mu);
        kv_latency.AddDuration(clock_.Now() - started);
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

  // ---- Anti-entropy phase: with repair on, every natural replica of the
  // smoke keys must converge on the winning timestamp within a few repair
  // intervals — the real-mode probe of replica-convergence's data facet.
  bool repair_phase_ran = false;
  bool repair_converged = true;
  int64_t diverged_replicas = 0;
  if (settled && healed && options_.config.kv.enabled && options_.config.kv.repair &&
      options_.kv_ops > 0) {
    repair_phase_ran = true;
    auto count_diverged = [&] {
      int64_t diverged = 0;
      for (int i = 0; i < options_.kv_ops; ++i) {
        uint64_t key = static_cast<uint64_t>(i) * 7919;
        std::vector<NodeId> replicas =
            nodes_[0]->WithCore([&](const ProtocolNode& core) {
              return core.ring().NaturalEndpointsForKey(
                  KvTokenForKey(key), options_.config.replication_factor);
            });
        int64_t winning = 0;
        for (NodeId r : replicas) {
          winning = std::max(winning, KvTimestampOf(*nodes_[static_cast<size_t>(r)], key));
        }
        if (winning == 0) continue;  // never acked anywhere: nothing to repair
        for (NodeId r : replicas) {
          if (KvTimestampOf(*nodes_[static_cast<size_t>(r)], key) < winning) {
            ++diverged;
          }
        }
      }
      return diverged;
    };
    const VirtualTime repair_deadline = clock_.Now() +
                                        options_.config.kv.repair_interval * 8 +
                                        VirtualDuration::Seconds(2);
    // Even when nothing diverged, dwell a few intervals: the scheduler must
    // be observed actually ticking, both so throttled repair demonstrates it
    // stays inside the session budget and so an unthrottled storm has time
    // to exceed it. Exiting at first agreement would end the run before the
    // first repair timer ever fired.
    const VirtualTime min_dwell = clock_.Now() +
                                  options_.config.kv.repair_interval * 4 +
                                  VirtualDuration::Seconds(1);
    repair_converged = false;
    while (clock_.Now() < repair_deadline) {
      diverged_replicas = count_diverged();
      if (diverged_replicas == 0 && clock_.Now() >= min_dwell) {
        repair_converged = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!repair_converged) {
      diverged_replicas = count_diverged();
      repair_converged = diverged_replicas == 0;
    }
  }

  VirtualTime end = clock_.Now();
  int64_t live_sum = 0;
  int64_t unreachable_sum = 0;
  for (const auto& node : nodes_) {
    live_sum += static_cast<int64_t>(node->WithCore([](const ProtocolNode& core) {
      return core.gossiper().LiveEndpointsView().size();
    }));
    unreachable_sum += static_cast<int64_t>(Unreachable(*node));
  }
  for (auto& node : nodes_) {
    node->Stop();
  }
  // The injector's filter closure dies with this frame; nodes are stopped,
  // but clear it so the member transport never outlives what it points at.
  transport_.SetLinkFilter(nullptr);

  RunResult result;
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
  result.live_endpoints = live_sum;
  result.unreachable_endpoints = unreachable_sum;
  if (injector != nullptr) {
    FaultInjector::Stats stats = injector->stats();
    result.fault_events_applied = stats.events_applied;
    result.fault_events_healed = stats.events_healed;
  }
  if (fault_phase_ran || repair_phase_ran) {
    // Real-mode probe of the partition-heals invariant: one end-of-run
    // verdict in the same report shape the sim checker emits, so the CLI's
    // exit-code logic treats both carriers identically.
    result.invariants.checked = true;
    result.invariants.probes = 1;
    if (fault_phase_ran && !healed) {
      InvariantViolation violation;
      violation.invariant = "partition-heals";
      violation.first_at = end;
      violation.detail = StrFormat(
          "%lld endpoints still unreachable %d gossip rounds after fault "
          "quiescence on the real carrier",
          static_cast<long long>(islanded), options_.partition_heal_rounds);
      violation.count = islanded > 0 ? islanded : 1;
      result.invariants.violations.push_back(violation);
    }
    if (repair_phase_ran && !repair_converged) {
      // Data facet of replica-convergence on the real carrier: acknowledged
      // smoke writes never reached every natural replica despite repair
      // having had several intervals to run.
      InvariantViolation violation;
      violation.invariant = "replica-convergence";
      violation.first_at = end;
      violation.detail = StrFormat(
          "%lld replica copies of the smoke key set still diverged after 8 "
          "repair intervals on the real carrier",
          static_cast<long long>(diverged_replicas));
      violation.count = diverged_replicas > 0 ? diverged_replicas : 1;
      result.invariants.violations.push_back(violation);
    }
  }
  result.kv_issued = kv_issued;
  // Budget facet of replica-convergence on the real carrier. Byte volumes in
  // a smoke are tiny, so the storm signature here is session RATE: throttled
  // repair opens at most max_sessions per interval, while the planted storm
  // opens one pseudo-session per live co-replica per tick.
  const double elapsed_seconds = static_cast<double>(end.nanos()) / 1e9;
  const double interval_seconds = std::max(
      1e-3,
      static_cast<double>(options_.config.kv.repair_interval.nanos()) / 1e9);
  const double session_allowance =
      (elapsed_seconds / interval_seconds) * options_.config.kv.repair_max_sessions *
          2.0 +
      4.0;
  const double byte_allowance = RepairByteAllowance(options_.config.kv, elapsed_seconds);
  for (const auto& node : nodes_) {
    if (!options_.config.kv.repair) break;
    bool already_flagged = false;
    for (const InvariantViolation& v : result.invariants.violations) {
      already_flagged = already_flagged || v.invariant == "replica-convergence";
    }
    if (already_flagged) break;
    KvStats stats = KvStatsOf(*node);
    if (static_cast<double>(stats.repair_sessions) > session_allowance ||
        static_cast<double>(stats.repair_bytes_streamed) > byte_allowance) {
      result.invariants.checked = true;
      if (result.invariants.probes == 0) result.invariants.probes = 1;
      result.invariants.violations.push_back(InvariantViolation{
          "replica-convergence", end,
          StrFormat("node %lld opened %lld repair sessions / streamed %lld "
                    "bytes in %.1fs, over 2x its configured budget — repair "
                    "storm",
                    static_cast<long long>(node->id()),
                    static_cast<long long>(stats.repair_sessions),
                    static_cast<long long>(stats.repair_bytes_streamed),
                    elapsed_seconds),
          1});
      break;  // one verdict is enough; keep the report small
    }
  }
  for (const auto& node : nodes_) {
    KvStats stats = KvStatsOf(*node);
    result.kv_ok += stats.ok;
    result.kv_unavailable += stats.unavailable;
    result.kv_timeout += stats.timeout;
    result.AddKvNodeStats(stats);
  }
  result.kv_inflight_at_stop =
      kv_issued - (result.kv_ok + result.kv_unavailable + result.kv_timeout);
  result.kv_latency_p50 = kv_latency.PercentileDuration(50);
  result.kv_latency_p99 = kv_latency.PercentileDuration(99);
  result.kv_latency_p999 = kv_latency.PercentileDuration(99.9);
  return result;
}

}  // namespace scalecheck
