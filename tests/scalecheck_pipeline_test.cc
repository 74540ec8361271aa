// The scale-check pipeline invariants (Figure 2) at test-friendly scales.

#include <gtest/gtest.h>

#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"

namespace scalecheck {
namespace {

TEST(BugSpecTest, CatalogIsConsistent) {
  for (const BugSpec& spec :
       {BugCatalog::Get("C3831"), BugCatalog::Get("C3831-fixed"), BugCatalog::Get("C3881"), BugCatalog::Get("C5456"), BugCatalog::Get("C5456-fixed"),
        BugCatalog::Get("C6127")}) {
    EXPECT_FALSE(spec.id.empty());
    EXPECT_FALSE(spec.description.empty());
    ClusterConfig cfg = spec.MakeConfig(32, RunMode::kColocated, 1);
    EXPECT_EQ(cfg.initial_nodes, 32);
    EXPECT_EQ(cfg.run_mode, RunMode::kColocated);
    EXPECT_EQ(cfg.calc_version, spec.calc_version);
    WorkloadSpec wl = spec.MakeWorkload(32);
    EXPECT_EQ(wl.kind, spec.workload);
  }
  EXPECT_EQ(BugCatalog::Get("C3881").MakeWorkload(64).joining_nodes, 16);  // +25%
}

TEST(BugSpecTest, MakeClusterOptionsCarriesEveryRunInput) {
  // Every entry point builds its deployment here, so an input this mapping
  // drops is dropped everywhere (the CLI once lost the key distribution).
  BugSpec spec = BugCatalog::Get("C3831");
  spec.workload = WorkloadKind::kSteadyState;
  spec.horizon = VirtualDuration::Seconds(120);
  spec.kv_ops_per_second = 500.0;
  spec.kv_key_dist = KvKeyDist::kZipf;
  spec.kv_zipf_s = 1.5;
  spec.fault_plan = "partition";
  spec.custom_faults = FaultPlan::IslandPartition(16, 3);  // wins over the name
  Cluster::Options options = spec.MakeClusterOptions(16, RunMode::kColocated, 7);
  EXPECT_EQ(options.config.initial_nodes, 16);
  EXPECT_EQ(options.config.run_mode, RunMode::kColocated);
  EXPECT_EQ(options.config.seed, 7u);
  EXPECT_TRUE(options.config.kv.enabled);
  EXPECT_EQ(options.workload.kind, WorkloadKind::kSteadyState);
  EXPECT_EQ(options.workload.horizon, VirtualDuration::Seconds(120));
  EXPECT_TRUE(options.faults == spec.custom_faults);
  EXPECT_DOUBLE_EQ(options.kv_ops_per_second, 500.0);
  EXPECT_EQ(options.kv_key_dist, KvKeyDist::kZipf);
  EXPECT_DOUBLE_EQ(options.kv_zipf_s, 1.5);
}

TEST(BugSpecTest, KvMirrorFieldsDefaultFromKvConfig) {
  // Without KV load a spec's KV settings are ClusterConfig's own defaults,
  // field for field.
  const BugSpec spec;
  EXPECT_EQ(spec.MakeConfig(16, RunMode::kColocated, 7).kv, ClusterConfig{}.kv);
  // KV load turns the service on and retries; nothing else moves.
  BugSpec loaded;
  loaded.kv_ops_per_second = 100.0;
  KvConfig kv = loaded.MakeConfig(16, RunMode::kColocated, 7).kv;
  EXPECT_TRUE(kv.enabled);
  EXPECT_EQ(kv.max_attempts, 4);
  EXPECT_NE(kv, ClusterConfig{}.kv);
  kv.enabled = ClusterConfig{}.kv.enabled;
  kv.max_attempts = ClusterConfig{}.kv.max_attempts;
  EXPECT_EQ(kv, ClusterConfig{}.kv);
}

TEST(RelativeFlapErrorTest, Definition) {
  EXPECT_DOUBLE_EQ(RelativeFlapError(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(RelativeFlapError(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(RelativeFlapError(150, 100), 0.5);
  EXPECT_DOUBLE_EQ(RelativeFlapError(50, 100), 0.5);
  EXPECT_DOUBLE_EQ(RelativeFlapError(5, 0), 5.0);  // reference clamped to 1
}

// One deployment with `store` attached: kMemoize fills it, kPilReplay reads it.
RunResult RunWithStore(const BugSpec& spec, int n, RunMode mode, uint64_t seed,
                       MemoStore* store) {
  Cluster::Options options = spec.MakeClusterOptions(n, mode, seed);
  options.memo_store = store;
  return Cluster(std::move(options)).Run();
}

// The four-mode comparison at a quiet scale, shared by the tests that read it.
const ScaleCheckResult& QuietComparison() {
  static const ScaleCheckResult kResult =
      RunComparison(BugCatalog::Get("C3831"), 12, 7);
  return kResult;
}

TEST(PipelineTest, MemoizeRunBehavesLikeColo) {
  // Recording must not perturb behaviour: the memoization run IS the basic
  // colocation run plus recording.
  BugSpec spec = BugCatalog::Get("C3831");
  RunResult colo = RunSingle(spec, 12, RunMode::kColocated, 7);
  MemoStore store;
  RunResult memoize = RunWithStore(spec, 12, RunMode::kMemoize, 7, &store);
  EXPECT_EQ(memoize.flaps, colo.flaps);
  EXPECT_EQ(memoize.messages_sent, colo.messages_sent);
  EXPECT_EQ(memoize.test_duration.nanos(), colo.test_duration.nanos());
  EXPECT_GT(store.size(), 0u);
}

TEST(PipelineTest, ReplayTimingMatchesRealAtQuietScales) {
  // At scales where nothing flaps, PIL replay must track the real-scale run
  // closely in duration and calc count.
  const ScaleCheckResult& full = QuietComparison();
  EXPECT_EQ(full.real.flaps, 0);
  EXPECT_EQ(full.replay.flaps, 0);
  EXPECT_TRUE(full.replay.settled);
  double ratio = full.replay.test_duration.seconds() / full.real.test_duration.seconds();
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(PipelineTest, ReplayUsesZeroCpuForCalcs) {
  const ScaleCheckResult& full = QuietComparison();
  // All pending-range invocations served from the DB or fallback sleeps.
  EXPECT_EQ(full.replay.pil.direct_runs, 0u);
  EXPECT_EQ(full.replay.pil.memoized_runs, 0u);
  EXPECT_GT(full.replay.pil.replay_hits, 0u);
  // CPU utilization far below the memoize run's.
  EXPECT_LT(full.replay.max_cpu_utilization, full.memoize.max_cpu_utilization);
}

TEST(PipelineTest, MemoRecordsAreDeterministicallyKeyed) {
  // Two memoization runs with the same seed produce identical stores.
  BugSpec spec = BugCatalog::Get("C3831");
  MemoStore a, b;
  RunWithStore(spec, 10, RunMode::kMemoize, 5, &a);
  RunWithStore(spec, 10, RunMode::kMemoize, 5, &b);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.Serialize().size(), b.Serialize().size());
  EXPECT_EQ(a.stats().determinism_violations, 0u);
  EXPECT_EQ(b.stats().determinism_violations, 0u);
}

TEST(PipelineTest, ReplayFromPersistedStoreWorks) {
  BugSpec spec = BugCatalog::Get("C3831");
  MemoStore store;
  RunWithStore(spec, 10, RunMode::kMemoize, 5, &store);
  std::vector<uint8_t> bytes = store.Serialize();
  MemoStore reloaded;
  ASSERT_TRUE(MemoStore::Parse(bytes, &reloaded).ok());
  RunResult replay = RunWithStore(spec, 10, RunMode::kPilReplay, 5, &reloaded);
  EXPECT_TRUE(replay.settled);
  EXPECT_GT(replay.pil.replay_hits, 0u);
}

TEST(PipelineTest, FixedSpecsProduceNoSymptom) {
  // Ablation: the patched configurations stay quiet where the buggy ones
  // would flap (here both are quiet at 12 nodes; the bench shows 256).
  RunResult fixed = RunSingle(BugCatalog::Get("C5456-fixed"), 12, RunMode::kRealScale, 7);
  EXPECT_EQ(fixed.flaps, 0);
  EXPECT_TRUE(fixed.settled);
  // The clone placement holds the lock far shorter than the coarse one.
  RunResult coarse = RunSingle(BugCatalog::Get("C5456"), 12, RunMode::kRealScale, 7);
  EXPECT_LT(fixed.calc_lock_hold_seconds.max(),
            coarse.calc_lock_hold_seconds.max());
}

TEST(PipelineTest, BootstrapSpecExercisesFreshPath) {
  RunResult r = RunSingle(BugCatalog::Get("C6127"), 10, RunMode::kRealScale, 7);
  EXPECT_TRUE(r.settled);
  EXPECT_GT(r.calc_invocations, 0);
}

}  // namespace
}  // namespace scalecheck
