// Anti-entropy repair riding on a live cluster (src/kv/anti_entropy.h):
// injected divergence converging with hints disabled, the crash-mid-repair
// abort accounting (sessions against a dead peer are abandoned, never
// retried forever), the planted repair-storm bug tripping the
// replica-convergence budget facet, the shared repair budget's two terms,
// and the RunResult counter exports.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/kv/anti_entropy.h"
#include "src/kv/kv_config.h"
#include "src/kv/kv_service.h"

namespace scalecheck {
namespace {

Cluster::Options RepairKvCluster(int n, VirtualDuration horizon) {
  ClusterConfig config;
  config.initial_nodes = n;
  config.calc_version = CalcVersion::kV3C3881Fix;
  config.run_mode = RunMode::kRealScale;
  config.kv.enabled = true;
  config.kv.wal = true;
  config.kv.repair = true;
  config.seed = 31337;
  WorkloadSpec wl;
  wl.kind = WorkloadKind::kSteadyState;
  wl.target = n / 2;
  wl.horizon = horizon;
  Cluster::Options options;
  options.config = config;
  options.workload = wl;
  return options;
}

bool Violated(const RunResult& r, const std::string& name) {
  for (const InvariantViolation& v : r.invariants.violations) {
    if (v.invariant == name) {
      return true;
    }
  }
  return false;
}

// Divergence neither hinted handoff nor read repair can fix (hints disabled,
// no client reads): a replica that missed a write while crashed must be
// converged by anti-entropy alone — and the replica-convergence invariant,
// armed by kv_repair, must come back clean.
TEST(KvRepairTest, InjectedDivergenceConvergesViaAntiEntropy) {
  Cluster::Options options = RepairKvCluster(8, VirtualDuration::Seconds(200));
  options.config.kv.hint_limit = 0;  // hints off: anti-entropy or nothing
  Cluster cluster(std::move(options));
  KvOutcome outcome = KvOutcome::kTimeout;
  NodeId victim = kInvalidNode;
  NodeId coordinator = kInvalidNode;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    std::vector<NodeId> replicas =
        cluster.node(0)->core().ring().NaturalEndpointsForKey(KvTokenForKey(99), 3);
    ASSERT_EQ(replicas.size(), 3u);
    victim = replicas[0] == 0 ? replicas[1] : replicas[0];
    for (NodeId replica : replicas) {
      if (replica != victim) {
        coordinator = replica;
        break;
      }
    }
    cluster.node(victim)->Crash();
  });
  // Write long after the crash (failure detector has convicted the victim):
  // QUORUM succeeds on the live pair, and with hints disabled the victim has
  // no other way back than a Merkle diff.
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(50), [&] {
    cluster.node(coordinator)
        ->kv()
        ->Write(99, "repaired", [&](KvOutcome o, std::string) { outcome = o; });
  });
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(80), [&] {
    cluster.node(victim)->Restart({0, 1, 2});
  });
  RunResult r = cluster.Run();
  EXPECT_EQ(outcome, KvOutcome::kOk);
  // The victim converged to the exact acked version, via a repair stream.
  int64_t repaired = cluster.node(victim)->kv()->storage().TimestampOf(99);
  EXPECT_GT(repaired, 0);
  EXPECT_EQ(repaired,
            cluster.node(coordinator)->kv()->storage().TimestampOf(99));
  EXPECT_GE(cluster.node(victim)->kv()->stats().repair_keys_fixed, 1);
  EXPECT_EQ(r.kv_hints_replayed, 0);
  // Invariant verdict: repair is on, so replica-convergence probed — and
  // holds, because the diff was streamed within the grace window.
  EXPECT_FALSE(Violated(r, "replica-convergence")) << r.invariants.ToJson();
  // Counters surface in RunResult for the experiment tables.
  EXPECT_GE(r.kv_repair_sessions, 1);
  EXPECT_GE(r.kv_repair_bytes_streamed, 1);
  EXPECT_GE(r.kv_repair_keys_fixed, 1);
}

// The crash-mid-repair regression (satellite fix): sessions whose peer dies
// under them are aborted and counted — kv_repair_aborted moves, and no node
// is left holding a stuck session at run end.
TEST(KvRepairTest, CrashMidRepairAbortsSessionInsteadOfRetryingForever) {
  Cluster::Options options = RepairKvCluster(8, VirtualDuration::Seconds(180));
  // Aggressive scheduling: a tick a second and a short session timeout, so
  // several sessions head for the victim inside the conviction window.
  options.config.kv.repair_interval = VirtualDuration::Seconds(1);
  options.config.kv.repair_session_timeout = VirtualDuration::Seconds(5);
  options.kv_ops_per_second = 20;  // some data so sessions have work
  Cluster cluster(std::move(options));
  NodeId victim = 3;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(40), [&] {
    cluster.node(victim)->Crash();
  });
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(100), [&] {
    cluster.node(victim)->Restart({0, 1, 2});
  });
  RunResult r = cluster.Run();
  // Somebody was mid-session (or about to time out) when the victim died.
  EXPECT_GE(r.kv_repair_aborted, 1);
  // Nobody retries forever: every session either finished or was abandoned.
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    const KvService* kv = cluster.node(static_cast<NodeId>(i))->kv();
    ASSERT_NE(kv, nullptr);
    if (kv->repair() != nullptr) {
      EXPECT_EQ(kv->repair()->active_sessions(), 0u) << "node " << i;
    }
  }
}

// The planted storm: rate limiter, session cap, and pressure yield all
// ignored — every tick streams the full shared range to every co-replica.
// The budget facet of replica-convergence must flag it.
TEST(KvRepairTest, PlantedRepairStormViolatesReplicaConvergence) {
  Cluster::Options options = RepairKvCluster(8, VirtualDuration::Seconds(150));
  options.config.check.plant_repair_storm = true;
  options.config.kv.repair_rate_bytes = 4096;  // the budget the storm ignores
  options.kv_ops_per_second = 200;
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();
  EXPECT_TRUE(Violated(r, "replica-convergence")) << r.invariants.ToJson();
  // The storm's byte volume is visible in the exported counters.
  EXPECT_GT(r.kv_repair_bytes_streamed,
            4096 * 150 * 2 + 4 * 1024 * 1024);
  EXPECT_GT(r.kv_repair_sessions, 0);
}

// The one repair budget both carriers judge by: either term over its
// allowance alone is a storm. At 10 s with 4 KiB/s and one session per 2 s
// interval the allowances are 4 MiB + 80 KiB and 14 sessions.
TEST(KvRepairTest, RepairBudgetFlagsEachTermAlone) {
  KvConfig kv;
  kv.repair_rate_bytes = 4096;
  kv.repair_interval = VirtualDuration::Seconds(2);
  kv.repair_max_sessions = 1;
  const int64_t byte_allowance = 4096 * 10 * 2 + 4 * 1024 * 1024;
  EXPECT_FALSE(RepairOverBudget(kv, 10.0, byte_allowance, 14));
  EXPECT_TRUE(RepairOverBudget(kv, 10.0, byte_allowance + 1, 14));  // bytes only
  EXPECT_TRUE(RepairOverBudget(kv, 10.0, byte_allowance, 15));      // sessions only
}

// Same cluster, same load, throttle honored: no violation, and the repair
// traffic stays inside the byte budget the invariant enforces.
TEST(KvRepairTest, ThrottledRepairStaysInsideBudget) {
  Cluster::Options options = RepairKvCluster(8, VirtualDuration::Seconds(150));
  options.config.kv.repair_rate_bytes = 4096;
  options.kv_ops_per_second = 200;
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();
  EXPECT_FALSE(Violated(r, "replica-convergence")) << r.invariants.ToJson();
  EXPECT_GE(r.kv_repair_sessions, 1);
}

// Repair off: no AntiEntropy instance, all four counters stay zero — the
// golden-compatibility contract for pre-repair configurations.
TEST(KvRepairTest, CountersZeroWithRepairOff) {
  Cluster::Options options = RepairKvCluster(8, VirtualDuration::Seconds(90));
  options.config.kv.repair = false;
  options.kv_ops_per_second = 50;
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();
  EXPECT_EQ(r.kv_repair_sessions, 0);
  EXPECT_EQ(r.kv_repair_bytes_streamed, 0);
  EXPECT_EQ(r.kv_repair_keys_fixed, 0);
  EXPECT_EQ(r.kv_repair_aborted, 0);
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    EXPECT_EQ(cluster.node(static_cast<NodeId>(i))->kv()->repair(), nullptr);
  }
}

// The zipfian key knob is seed-deterministic: two identical runs produce
// byte-identical JSON, and the skew actually concentrates traffic (far
// fewer distinct keys than the uniform run touches).
TEST(KvRepairTest, ZipfKeyDistributionIsDeterministic) {
  auto make = [] {
    Cluster::Options options =
        RepairKvCluster(8, VirtualDuration::Seconds(90));
    options.config.kv.repair = false;
    options.kv_ops_per_second = 100;
    options.kv_key_space = 1000;
    options.kv_key_dist = KvKeyDist::kZipf;
    options.kv_zipf_s = 1.2;
    return options;
  };
  Cluster first(make());
  RunResult a = first.Run();
  Cluster second(make());
  RunResult b = second.Run();
  EXPECT_GT(a.kv_issued, 0);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

}  // namespace
}  // namespace scalecheck
