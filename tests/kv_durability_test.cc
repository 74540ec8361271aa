// Durable data path riding on a live cluster: WAL crash/restart recovery,
// the planted ack-before-sync bug the kv-durability invariant catches,
// hinted handoff (replay on recovery, TTL expiry), and the per-consistency
// accounting exported through RunResult.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/kv/kv_service.h"

namespace scalecheck {
namespace {

Cluster::Options DurableKvCluster(int n, VirtualDuration horizon) {
  ClusterConfig config;
  config.initial_nodes = n;
  config.calc_version = CalcVersion::kV3C3881Fix;
  config.run_mode = RunMode::kRealScale;
  config.kv.enabled = true;
  config.kv.wal = true;
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

// With the WAL on and ALL consistency, every replica acks only after its
// group-commit sync — so crashing an acker right after the client ack and
// restarting it must recover the write from the durable prefix.
TEST(KvDurabilityTest, AckedWriteSurvivesAckerCrashRestart) {
  Cluster::Options options = DurableKvCluster(8, VirtualDuration::Seconds(120));
  options.config.kv.consistency = KvConsistency::kAll;
  Cluster cluster(std::move(options));
  KvOutcome outcome = KvOutcome::kTimeout;
  NodeId victim = kInvalidNode;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    std::vector<NodeId> replicas =
        cluster.node(0)->core().ring().NaturalEndpointsForKey(KvTokenForKey(99), 3);
    ASSERT_EQ(replicas.size(), 3u);
    victim = replicas[0] == 0 ? replicas[1] : replicas[0];
    cluster.node(0)->kv()->Write(99, "durable", [&](KvOutcome o, std::string) {
      outcome = o;
      // ALL consistency: the victim is necessarily an acker, and its ack
      // implies its sync already ran. Crash it in the ack's shadow.
      cluster.node(victim)->Crash();
      cluster.sim().ScheduleAfter(VirtualDuration::Seconds(20), [&] {
        cluster.node(victim)->Restart({0, 1, 2});
      });
    });
  });
  RunResult r = cluster.Run();
  EXPECT_EQ(outcome, KvOutcome::kOk);
  EXPECT_FALSE(Violated(r, "kv-durability")) << r.invariants.ToJson();
  const KvService* kv = cluster.node(victim)->kv();
  EXPECT_GT(kv->storage().TimestampOf(99), 0);
  EXPECT_GT(kv->stats().wal_recovered_records, 0);
}

// Same crash schedule with the planted bug: the replica acks at append time,
// the crash lands inside the 250ms group-commit window, and the restarted
// replica is missing a write it acknowledged — the kv-durability invariant
// must say so.
TEST(KvDurabilityTest, PlantedAckBeforeSyncViolatesKvDurability) {
  Cluster::Options options = DurableKvCluster(8, VirtualDuration::Seconds(120));
  options.config.kv.consistency = KvConsistency::kAll;
  options.config.check.plant_kv_ack_before_sync = true;
  Cluster cluster(std::move(options));
  KvOutcome outcome = KvOutcome::kTimeout;
  NodeId victim = kInvalidNode;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    std::vector<NodeId> replicas =
        cluster.node(0)->core().ring().NaturalEndpointsForKey(KvTokenForKey(99), 3);
    ASSERT_EQ(replicas.size(), 3u);
    victim = replicas[0] == 0 ? replicas[1] : replicas[0];
    cluster.node(0)->kv()->Write(99, "doomed", [&](KvOutcome o, std::string) {
      outcome = o;
      cluster.node(victim)->Crash();
      cluster.sim().ScheduleAfter(VirtualDuration::Seconds(20), [&] {
        cluster.node(victim)->Restart({0, 1, 2});
      });
    });
  });
  RunResult r = cluster.Run();
  EXPECT_EQ(outcome, KvOutcome::kOk);
  EXPECT_TRUE(Violated(r, "kv-durability")) << r.invariants.ToJson();
  // The lost record is visible in the stats trail too.
  EXPECT_GE(cluster.node(victim)->kv()->stats().wal_lost_records, 1);
}

// A coordinator that writes around a dead replica queues a hint and replays
// it — with the ORIGINAL timestamp — once the failure detector marks the
// replica alive again.
TEST(KvDurabilityTest, HintQueuedForDeadReplicaReplaysOnRecovery) {
  Cluster cluster(DurableKvCluster(8, VirtualDuration::Seconds(150)));
  KvOutcome outcome = KvOutcome::kTimeout;
  NodeId victim = kInvalidNode;
  NodeId coordinator = kInvalidNode;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    std::vector<NodeId> replicas =
        cluster.node(0)->core().ring().NaturalEndpointsForKey(KvTokenForKey(424), 3);
    ASSERT_EQ(replicas.size(), 3u);
    victim = replicas[0] == 0 ? replicas[1] : replicas[0];
    // Coordinate from a live replica so at least one acker holds the value.
    for (NodeId replica : replicas) {
      if (replica != victim) {
        coordinator = replica;
        break;
      }
    }
    cluster.node(victim)->Crash();
  });
  // Write long after the crash: the coordinator's failure detector has
  // convicted the victim, so the write proceeds on the live pair (QUORUM)
  // and a hint is queued for the dead one.
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(50), [&] {
    cluster.node(coordinator)
        ->kv()
        ->Write(424, "handed-off", [&](KvOutcome o, std::string) { outcome = o; });
  });
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(80), [&] {
    cluster.node(victim)->Restart({0, 1, 2});
  });
  RunResult r = cluster.Run();
  EXPECT_EQ(outcome, KvOutcome::kOk);
  const KvService* coord_kv = cluster.node(coordinator)->kv();
  EXPECT_GE(coord_kv->stats().hints_queued, 1);
  EXPECT_GE(coord_kv->stats().hints_replayed, 1);
  EXPECT_EQ(coord_kv->stats().hints_expired, 0);
  EXPECT_EQ(coord_kv->hint_queue_depth(), 0);
  // The replayed hint carried the original timestamp: the recovered replica
  // converged to the same version the coordinating replica holds.
  int64_t replayed = cluster.node(victim)->kv()->storage().TimestampOf(424);
  EXPECT_GT(replayed, 0);
  EXPECT_EQ(replayed, coord_kv->storage().TimestampOf(424));
  // Counters surface in RunResult for the experiment tables.
  EXPECT_GE(r.kv_hints_queued, 1);
  EXPECT_GE(r.kv_hints_replayed, 1);
}

// A hint that outlives its TTL is dropped at replay time, not delivered:
// the recovered replica converges through read repair / later writes, never
// through stale hints.
TEST(KvDurabilityTest, HintExpiresAfterTtlAndIsNotDelivered) {
  Cluster::Options options = DurableKvCluster(8, VirtualDuration::Seconds(150));
  options.config.kv.hint_ttl = VirtualDuration::Seconds(10);
  Cluster cluster(std::move(options));
  KvOutcome outcome = KvOutcome::kTimeout;
  NodeId victim = kInvalidNode;
  NodeId coordinator = kInvalidNode;
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    std::vector<NodeId> replicas =
        cluster.node(0)->core().ring().NaturalEndpointsForKey(KvTokenForKey(424), 3);
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
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(50), [&] {
    cluster.node(coordinator)
        ->kv()
        ->Write(424, "too-late", [&](KvOutcome o, std::string) { outcome = o; });
  });
  // Restart 30s after the write — 20s past the 10s TTL.
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(80), [&] {
    cluster.node(victim)->Restart({0, 1, 2});
  });
  RunResult r = cluster.Run();
  EXPECT_EQ(outcome, KvOutcome::kOk);
  const KvService* coord_kv = cluster.node(coordinator)->kv();
  EXPECT_GE(coord_kv->stats().hints_queued, 1);
  EXPECT_GE(coord_kv->stats().hints_expired, 1);
  EXPECT_EQ(coord_kv->stats().hints_replayed, 0);
  // The expired hint never reached the victim.
  EXPECT_EQ(cluster.node(victim)->kv()->storage().TimestampOf(424), 0);
  EXPECT_GE(r.kv_hints_expired, 1);
}

// The load driver under ONE consistency: per-level op counts and WAL bytes
// land in RunResult, and the WAL-on data path still conserves every client
// request.
TEST(KvDurabilityTest, ConsistencyLevelAndWalCountersExport) {
  Cluster::Options options = DurableKvCluster(8, VirtualDuration::Seconds(120));
  options.config.kv.consistency = KvConsistency::kOne;
  options.kv_ops_per_second = 50;
  Cluster cluster(std::move(options));
  RunResult r = cluster.Run();
  EXPECT_GT(r.kv_issued, 0);
  EXPECT_EQ(r.kv_issued,
            r.kv_ok + r.kv_unavailable + r.kv_timeout + r.kv_inflight_at_stop);
  EXPECT_GT(r.kv_ops_one, 0);
  EXPECT_EQ(r.kv_ops_quorum, 0);
  EXPECT_EQ(r.kv_ops_all, 0);
  EXPECT_GT(r.kv_wal_bytes, 0);
  // ONE does not give intersecting read/write sets: the history checker must
  // have declared itself off rather than risk false alarms.
  EXPECT_FALSE(r.invariants.kv_checked);
}

// Memory charging: the data path's footprint (WAL + memtable + hints) is
// charged to the per-machine model under "kv-storage", so a loaded WAL run
// peaks strictly higher than the same run without KV load.
TEST(KvDurabilityTest, KvStorageFootprintIsCharged) {
  Cluster::Options loaded = DurableKvCluster(8, VirtualDuration::Seconds(120));
  loaded.kv_ops_per_second = 100;
  Cluster with_load(std::move(loaded));
  RunResult r_loaded = with_load.Run();

  Cluster::Options idle = DurableKvCluster(8, VirtualDuration::Seconds(120));
  Cluster without_load(std::move(idle));
  RunResult r_idle = without_load.Run();

  EXPECT_GT(r_loaded.kv_wal_bytes, 0);
  EXPECT_GT(r_loaded.peak_memory_bytes, r_idle.peak_memory_bytes);
}

}  // namespace
}  // namespace scalecheck
