// The KV client-op history recorder (src/kv/kv_history.h) and the kv-history
// invariant that replays it: complete recording by construction, and a
// deliberately broken storage engine proving the checker catches real
// lost-acknowledged-write bugs.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/scalecheck/scale_check.h"

namespace scalecheck {
namespace {

Cluster::Options HistoryCluster(int n) {
  ClusterConfig config;
  config.initial_nodes = n;
  config.calc_version = CalcVersion::kV3C3881Fix;
  config.run_mode = RunMode::kRealScale;
  config.kv.enabled = true;
  config.seed = 31337;
  WorkloadSpec wl;
  wl.kind = WorkloadKind::kSteadyState;
  wl.horizon = VirtualDuration::Seconds(120);
  Cluster::Options options;
  options.config = config;
  options.workload = wl;
  return options;
}

TEST(KvHistoryTest, ManualOpsRecordedAtIssueAndConclusion) {
  Cluster cluster(HistoryCluster(8));
  cluster.sim().ScheduleAfter(VirtualDuration::Seconds(5), [&] {
    cluster.node(0)->kv()->Write(777, "the-value", [&](KvOutcome, std::string) {
      cluster.node(3)->kv()->Read(777, [](KvOutcome, std::string) {});
    });
  });
  cluster.Run();
  const KvHistory* history = cluster.kv_history();
  ASSERT_NE(history, nullptr);
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ(history->concluded_count(), 2);

  const KvOpRecord& write = history->ops()[0];
  EXPECT_EQ(write.id, 0u);
  EXPECT_EQ(write.coordinator, 0);
  EXPECT_TRUE(write.is_write);
  EXPECT_EQ(write.key, 777u);
  EXPECT_EQ(write.value, "the-value");
  ASSERT_TRUE(write.concluded);
  EXPECT_EQ(write.outcome, KvOutcome::kOk);
  EXPECT_LE(write.issued_at.nanos(), write.concluded_at.nanos());

  const KvOpRecord& read = history->ops()[1];
  EXPECT_EQ(read.coordinator, 3);
  EXPECT_FALSE(read.is_write);
  EXPECT_EQ(read.key, 777u);
  ASSERT_TRUE(read.concluded);
  EXPECT_EQ(read.outcome, KvOutcome::kOk);
  EXPECT_EQ(read.result_value, "the-value");
  // The write concluded before the read was even issued.
  EXPECT_EQ(history->conclusion_order()[0], 0u);
}

// Records live in a deque: one read through ops() stays valid while the
// history grows (a vector would move every record on each doubling).
TEST(KvHistoryTest, RecordsStayPutAsTheHistoryGrows) {
  KvHistory history;
  const uint64_t first = history.RecordIssued(/*coordinator=*/1, /*is_write=*/true,
                                              /*key=*/5, "first", VirtualTime::Zero());
  const KvOpRecord* record = &history.ops()[first];
  for (uint64_t key = 0; key < 10'000; ++key) {
    history.RecordIssued(/*coordinator=*/2, /*is_write=*/false, key, "", VirtualTime::Zero());
  }
  history.RecordWriteAcked(first, /*write_timestamp=*/42, {1, 2});
  history.RecordConcluded(first, KvOutcome::kOk, "", VirtualTime::Zero());
  ASSERT_EQ(history.size(), 10'001u);
  EXPECT_EQ(record, &history.ops()[first]);
  EXPECT_EQ(record->value, "first");
  EXPECT_EQ(record->write_timestamp, 42);
  EXPECT_EQ(record->ackers, (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(record->concluded);
}

TEST(KvHistoryTest, DriverLoadIsCompletelyRecorded) {
  Cluster::Options options = HistoryCluster(8);
  options.kv_ops_per_second = 50;
  // A small key space forces read-after-write collisions, so the
  // read-your-writes model is actually exercised rather than vacuous.
  options.kv_key_space = 50;
  Cluster cluster(std::move(options));
  RunResult result = cluster.Run();
  const KvHistory* history = cluster.kv_history();
  ASSERT_NE(history, nullptr);
  // Every issued client op has exactly one history record, and every
  // concluded op concluded exactly once.
  EXPECT_EQ(result.kv_issued, static_cast<int64_t>(history->size()));
  EXPECT_GT(result.kv_issued, 1000);
  EXPECT_EQ(history->concluded_count(),
            result.kv_ok + result.kv_unavailable + result.kv_timeout);
  // Healthy steady state: the history satisfies read-your-writes.
  EXPECT_TRUE(result.invariants.kv_checked);
  EXPECT_TRUE(result.invariants.ok()) << result.invariants.ToJson();
}

// A storage engine that acknowledges writes without persisting anything —
// the classic silent-data-loss bug the history checker exists to catch.
class LossyStorage : public StorageEngine {
 public:
  WorkUnits Put(uint64_t /*key*/, std::string /*value*/,
                int64_t /*timestamp*/) override {
    return 50;  // charge plausible work, store nothing
  }
};

TEST(KvHistoryTest, LossyStorageTripsKvHistoryInvariant) {
  Cluster::Options options = HistoryCluster(8);
  options.kv_ops_per_second = 50;
  options.kv_key_space = 50;
  Cluster cluster(std::move(options));
  for (size_t i = 0; i < cluster.total_nodes(); ++i) {
    cluster.node(static_cast<NodeId>(i))
        ->kv()
        ->ReplaceStorageForTest(std::make_unique<LossyStorage>());
  }
  RunResult result = cluster.Run();
  ASSERT_TRUE(result.invariants.kv_checked);
  ASSERT_FALSE(result.invariants.ok());
  std::vector<std::string> names = result.invariants.ViolatedNames();
  ASSERT_EQ(names.size(), 1u) << result.invariants.ToJson();
  EXPECT_EQ(names[0], "kv-history");
  EXPECT_EQ(RunExitCode(result), 4);
}

}  // namespace
}  // namespace scalecheck
