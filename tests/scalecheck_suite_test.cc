// ExperimentSuite: the declarative grid + host-parallel executor. The core
// contract under test is determinism — jobs=N must be byte-identical to
// jobs=1 — plus the memoize->replay DAG edge and the synchronized
// CalcOutputCache it leans on.

#include "src/scalecheck/experiment_suite.h"

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/node.h"
#include "src/common/thread_pool.h"
#include "src/scalecheck/bug_catalog.h"

namespace scalecheck {
namespace {

ExperimentSpec SmallGrid(int jobs) {
  ExperimentSpec spec;
  spec.bugs = {BugCatalog::Get("C3831")};
  spec.modes = {RunMode::kRealScale, RunMode::kColocated, RunMode::kMemoize,
                RunMode::kPilReplay};
  spec.scales = {10, 12};
  spec.jobs = jobs;
  return spec;
}

TEST(ExperimentSuiteTest, ParallelExecutionIsByteIdenticalToSerial) {
  SuiteReport serial = ExperimentSuite(SmallGrid(1)).Run();
  SuiteReport parallel = ExperimentSuite(SmallGrid(4)).Run();
  std::string serial_json = serial.ToJson();
  EXPECT_FALSE(serial_json.empty());
  EXPECT_EQ(serial_json, parallel.ToJson());
}

TEST(ExperimentSuiteTest, SharedCacheDoesNotChangeResults) {
  // A suite's cells share one calculator output cache. A run through a cache
  // that another run already filled (so its calculations are served by hits)
  // must equal a run that computes everything through a private cache.
  const BugSpec& bug = BugCatalog::Get("C3831");
  const uint64_t seed = kDefaultSuiteSeed;
  for (int n : SmallGrid(4).scales) {
    for (RunMode mode : {RunMode::kRealScale, RunMode::kColocated}) {
      const std::string private_json = RunSingle(bug, n, mode, seed).ToJson();
      CalcOutputCache shared;
      uint64_t hits_after_fill = 0;
      for (int pass = 0; pass < 2; ++pass) {
        Cluster::Options options = bug.MakeClusterOptions(n, mode, seed);
        options.shared_output_cache = &shared;
        EXPECT_EQ(Cluster(std::move(options)).Run().ToJson(), private_json)
            << RunModeName(mode) << " N=" << n << " pass " << pass;
        if (pass == 0) {
          hits_after_fill = shared.hits();
        }
      }
      EXPECT_GT(shared.hits(), hits_after_fill) << RunModeName(mode) << " N=" << n;
    }
  }
}

TEST(ExperimentSuiteTest, MatchesRunSingle) {
  // A suite cell is the deployment every other entry point builds: Real and
  // Colo equal RunSingle byte for byte; memoize and replay equal a Cluster
  // pair sharing one MemoStore. The suite's cells share one calculator
  // output cache and a standalone Cluster owns a private one, so every cell
  // of the grid also shows that sharing the cache changes no result.
  const BugSpec& bug = BugCatalog::Get("C3831");
  const uint64_t seed = kDefaultSuiteSeed;
  const ExperimentSpec spec = SmallGrid(4);
  SuiteReport report = ExperimentSuite(spec).Run();
  for (int n : spec.scales) {
    for (RunMode mode : {RunMode::kRealScale, RunMode::kColocated}) {
      const RunRecord* cell = report.Find(bug.id, mode, n, seed);
      ASSERT_NE(cell, nullptr);
      RunRecord standalone = *cell;
      standalone.result = RunSingle(bug, n, mode, seed);
      EXPECT_EQ(SuiteReport::RecordJson(*cell), SuiteReport::RecordJson(standalone))
          << RunModeName(mode) << " N=" << n;
    }

    MemoStore store;
    Cluster::Options memoize = bug.MakeClusterOptions(n, RunMode::kMemoize, seed);
    memoize.memo_store = &store;
    RunResult memoized = Cluster(std::move(memoize)).Run();
    Cluster::Options replay = bug.MakeClusterOptions(n, RunMode::kPilReplay, seed);
    replay.memo_store = &store;
    RunResult replayed = Cluster(std::move(replay)).Run();
    EXPECT_EQ(report.Get(bug.id, RunMode::kMemoize, n, seed).ToJson(), memoized.ToJson())
        << "N=" << n;
    EXPECT_EQ(report.Get(bug.id, RunMode::kPilReplay, n, seed).ToJson(), replayed.ToJson())
        << "N=" << n;
    EXPECT_EQ(report.Assemble(bug.id, n, seed).memo.records, store.stats().records)
        << "N=" << n;
  }
}

TEST(ExperimentSuiteTest, RecordsFollowCanonicalGridOrder) {
  ExperimentSpec spec = SmallGrid(4);
  SuiteReport report = ExperimentSuite(spec).Run();
  ASSERT_EQ(report.runs().size(), 8u);  // 1 bug x 2 scales x 4 modes
  size_t i = 0;
  for (int n : spec.scales) {
    for (RunMode mode : spec.modes) {
      EXPECT_EQ(report.runs()[i].nodes, n);
      EXPECT_EQ(report.runs()[i].mode, mode);
      EXPECT_FALSE(report.runs()[i].implicit);
      ++i;
    }
  }
}

TEST(ExperimentSuiteTest, ReplayWaitsForImplicitMemoizeRun) {
  // A replay-only grid: the suite must insert the memoization dependency
  // itself and sequence it before the replay, whatever the worker count.
  ExperimentSpec spec;
  spec.bugs = {BugCatalog::Get("C3831")};
  spec.modes = {RunMode::kPilReplay};
  spec.scales = {10};
  spec.jobs = 4;
  SuiteReport report = ExperimentSuite(spec).Run();

  ASSERT_EQ(report.runs().size(), 2u);
  EXPECT_EQ(report.runs()[0].mode, RunMode::kPilReplay);
  EXPECT_FALSE(report.runs()[0].implicit);
  EXPECT_EQ(report.runs()[1].mode, RunMode::kMemoize);
  EXPECT_TRUE(report.runs()[1].implicit);

  // The replay actually ran against a filled store: DB hits, no direct runs.
  const RunResult& replay =
      report.Get("C3831", RunMode::kPilReplay, 10, kDefaultSuiteSeed);
  EXPECT_GT(replay.pil.replay_hits, 0u);
  EXPECT_EQ(replay.pil.direct_runs, 0u);
  EXPECT_TRUE(replay.settled);
}

TEST(ExperimentSuiteTest, MultiSeedGridKeepsSeedsApart) {
  ExperimentSpec spec;
  spec.bugs = {BugCatalog::Get("C3831")};
  spec.modes = {RunMode::kRealScale};
  spec.scales = {10};
  spec.seeds = {1, 2};
  spec.jobs = 2;
  SuiteReport report = ExperimentSuite(spec).Run();
  const RunResult& a = report.Get("C3831", RunMode::kRealScale, 10, 1);
  const RunResult& b = report.Get("C3831", RunMode::kRealScale, 10, 2);
  // Different seeds, different executions; identical serialized results would
  // mean the seed was ignored.
  EXPECT_NE(a.ToJson(), b.ToJson());
  EXPECT_EQ(report.Find("C3831", RunMode::kRealScale, 10, 3), nullptr);
}

TEST(CalcOutputCacheTest, ConcurrentHammeringStaysConsistent) {
  // Many threads racing Find/Put on overlapping keys: first put wins, every
  // later Find sees a pointer to the winning entry, nothing is lost.
  CalcOutputCache cache;
  constexpr int kKeys = 64;
  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&cache, &mismatches, t] {
        for (int k = 0; k < kKeys; ++k) {
          DigestValue digest{static_cast<uint64_t>(k), 0xfeedULL};
          CalcOutputCache::Entry entry;
          // Every thread writes the same value for a key — the cache contract
          // (entries are pure functions of the key) the suite relies on.
          entry.ops = k;
          entry.output = {static_cast<uint8_t>(k)};
          cache.Put(CalcVersion::kV1PreC3831, digest, entry);
          const CalcOutputCache::Entry* found =
              cache.Find(CalcVersion::kV1PreC3831, digest);
          if (found == nullptr || found->ops != k || found->output.size() != 1 ||
              found->output[0] != static_cast<uint8_t>(k)) {
            mismatches.fetch_add(1);
          }
          (void)t;
        }
      });
    }
    pool.WaitIdle();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  EXPECT_GE(cache.hits(), static_cast<uint64_t>(kKeys * kThreads));
}

TEST(ExperimentSuiteTest, JsonExcludesHostTiming) {
  SuiteReport report = ExperimentSuite(SmallGrid(2)).Run();
  EXPECT_GT(report.total_run_wall_seconds(), 0.0);
  EXPECT_EQ(report.ToJson().find("wall"), std::string::npos);
  EXPECT_EQ(report.ToJson().find("jobs"), std::string::npos);
}

}  // namespace
}  // namespace scalecheck
