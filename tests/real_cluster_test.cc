// Real-socket cluster tests: the SAME Gossiper/ring/KvService translation
// units that run in the simulator, booted on localhost TCP with wall-clock
// timers. Small N and fast gossip keep this inside normal ctest budgets.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/net/real_cluster.h"

namespace scalecheck {
namespace {

RealCluster::Options FastOptions(int nodes) {
  RealCluster::Options options;
  options.config.initial_nodes = nodes;
  options.seeds = 2;
  options.config.seed = 42;
  options.config.gossip_interval = VirtualDuration::Millis(20);
  options.convergence_timeout = VirtualDuration::Seconds(20);
  return options;
}

TEST(RealCluster, FourNodesConvergeOnLocalhost) {
  RealCluster cluster(FastOptions(4));
  RunResult result = cluster.Run();
  EXPECT_TRUE(result.settled) << result.Summary();
  EXPECT_EQ(result.mode, RunMode::kRealSockets);
  EXPECT_EQ(result.num_nodes, 4);
  EXPECT_GT(result.settle_time.nanos(), 0);
  EXPECT_GT(result.messages_sent, 0u);
  EXPECT_GT(result.messages_delivered, 0u);
  // Real sockets on loopback under no faults: nothing should flap.
  EXPECT_EQ(result.flaps, 0) << result.Summary();
}

TEST(RealCluster, KvQuorumOpsSucceedAfterConvergence) {
  RealCluster::Options options = FastOptions(5);
  options.config.kv.enabled = true;
  options.kv_ops = 16;
  RealCluster cluster(options);
  RunResult result = cluster.Run();
  ASSERT_TRUE(result.settled) << result.Summary();
  EXPECT_EQ(result.kv_issued, 32);  // 16 writes + 16 reads
  EXPECT_EQ(result.kv_ok, 32) << result.Summary();
  EXPECT_EQ(result.kv_unavailable, 0);
  EXPECT_EQ(result.kv_timeout, 0);
  EXPECT_EQ(result.kv_inflight_at_stop, 0);
  EXPECT_GT(result.kv_latency_p99.nanos(), 0);
}

TEST(RealCluster, KvWalGroupCommitAcksOverTcp) {
  // The durable data path on the TCP carrier: with the WAL on, a replica
  // defers its write ack until the group-commit sync, so every OK below
  // means the record was durable before the coordinator counted the ack —
  // the same contract the sim-side kv-durability invariant audits.
  RealCluster::Options options = FastOptions(5);
  options.config.kv.enabled = true;
  options.config.kv.wal = true;
  options.config.kv.wal_sync_interval = VirtualDuration::Millis(25);
  options.kv_ops = 16;
  RealCluster cluster(options);
  RunResult result = cluster.Run();
  ASSERT_TRUE(result.settled) << result.Summary();
  EXPECT_EQ(result.kv_issued, 32);
  EXPECT_EQ(result.kv_ok, 32) << result.Summary();
  EXPECT_GT(result.kv_wal_bytes, 0);
  EXPECT_EQ(result.kv_ops_quorum, 32);
  EXPECT_EQ(result.kv_ops_one, 0);
  EXPECT_EQ(result.kv_ops_all, 0);
}

TEST(RealCluster, IslandPartitionHealsOnRealSockets) {
  // The same FaultPlan the sim replays, against real TCP: island node 4
  // behind the link filter long enough for conviction, heal, and demand
  // reconvergence within the partition-heal bound. Plan times are authored
  // in sim gossip rounds (1s); at a 25ms interval the 32-round partition is
  // ~0.8s wall, so the whole fault phase fits inside a ctest budget.
  RealCluster::Options options = FastOptions(5);
  options.config.gossip_interval = VirtualDuration::Millis(25);
  options.faults = FaultPlan::IslandPartition(5, /*seed=*/42);
  RealCluster cluster(options);
  RunResult result = cluster.Run();
  ASSERT_TRUE(result.settled) << result.Summary();
  EXPECT_EQ(result.fault_events_applied, 1);
  EXPECT_EQ(result.fault_events_healed, 1);
  EXPECT_GT(result.messages_blocked, 0u) << result.Summary();
  // The real-mode partition-heals probe ran and passed: nobody islanded.
  EXPECT_TRUE(result.invariants.checked);
  EXPECT_TRUE(result.invariants.ok()) << result.invariants.ToJson();
  EXPECT_EQ(result.unreachable_endpoints, 0) << result.Summary();
  EXPECT_EQ(result.live_endpoints, 5 * 4);
}

// A WAL-backed quorum KV smoke with anti-entropy on. The repair interval is
// short so the run is too, and the convergence grace is re-derived from it
// the way RealCarrierConfig() derives it from its 2 s default.
RealCluster::Options RepairOptions(int nodes) {
  RealCluster::Options options = FastOptions(nodes);
  options.config.kv.enabled = true;
  options.config.kv.wal = true;
  options.config.kv.wal_sync_interval = VirtualDuration::Millis(25);
  options.config.kv.repair = true;
  options.config.kv.repair_interval = VirtualDuration::Millis(200);
  options.config.check.convergence_grace =
      options.config.kv.repair_interval * 4 + VirtualDuration::Seconds(1);
  options.kv_ops = 16;
  return options;
}

TEST(RealCluster, HealthyRepairSmokePassesTheSharedRegistry) {
  // The registry the simulator probes judges the socket run too: probed
  // from boot on, with the client history recorded, so the KV checks arm
  // and the run dwells until the data facet has audited the smoke.
  RealCluster cluster(RepairOptions(5));
  RunResult result = cluster.Run();
  ASSERT_TRUE(result.settled) << result.Summary();
  EXPECT_EQ(result.kv_ok, 32) << result.Summary();
  EXPECT_TRUE(result.invariants.checked);
  EXPECT_GE(result.invariants.probes, 2u);
  EXPECT_TRUE(result.invariants.kv_checked);
  EXPECT_TRUE(result.invariants.ok()) << result.invariants.ToJson();
  EXPECT_GE(result.kv_repair_sessions, 1);
}

TEST(RealCluster, PlantedRepairStormViolatesReplicaConvergence) {
  // The storm streams to every co-replica on every tick: at 8 nodes about
  // seven sessions per 200 ms tick per node against an allowance of two, so
  // the shared repair budget's session term trips early in the dwell and by
  // the end each node has opened ~55 sessions against an allowance of ~23.
  RealCluster::Options options = RepairOptions(8);
  options.config.check.plant_repair_storm = true;
  RealCluster cluster(options);
  RunResult result = cluster.Run();
  ASSERT_TRUE(result.settled) << result.Summary();
  ASSERT_FALSE(result.invariants.violations.empty()) << result.invariants.ToJson();
  EXPECT_EQ(result.invariants.ViolatedNames(),
            std::vector<std::string>{"replica-convergence"})
      << result.invariants.ToJson();
}

TEST(RealCluster, ResultJsonRoundTripsThroughSameSchema) {
  RealCluster cluster(FastOptions(3));
  RunResult result = cluster.Run();
  ASSERT_TRUE(result.settled) << result.Summary();
  std::string json = result.ToJson();
  // Same exporter the simulated modes use — mode name included.
  EXPECT_NE(json.find("\"mode\":\"RealNet\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"settled\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"messages_sent\""), std::string::npos) << json;
}

}  // namespace
}  // namespace scalecheck
