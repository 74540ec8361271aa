// CASSANDRA-3831 walkthrough: why "100-node testing is not enough".
//
// Runs the decommission workload at growing scales in real-scale mode,
// printing per-scale calc durations and flaps — the latent bug is invisible
// until ~256 nodes. Then performs the one-time memoization at the failing
// scale, persists the memo DB to disk, reloads it (as a developer machine
// would between debug iterations), and replays.
//
// Run: ./build/examples/decommission_check [--full]
//      (--full includes the N=256 runs; without it the demo stays <1 min)

#include <cstdio>
#include <cstring>

#include "src/pil/memo_store.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"

using namespace scalecheck;

int main(int argc, char** argv) {
  bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;

  BugSpec bug = BugCatalog::Get("C3831");
  std::printf("=== %s: %s ===\n\n", bug.id.c_str(), bug.description.c_str());
  std::printf("The pending-range calculation is %s — scalable on the design sketch,\n"
              "cubic in the implementation (%s).\n\n",
              CalcVersionName(bug.calc_version),
              MakeCalculator(bug.calc_version)->complexity());

  std::vector<int> scales = full ? std::vector<int>{32, 64, 128, 256}
                                 : std::vector<int>{16, 32, 64, 96};
  std::printf("%-8s %-12s %-14s %-10s\n", "#nodes", "flaps", "calc max", "verdict");
  for (int n : scales) {
    RunResult real = RunSingle(bug, n, RunMode::kRealScale, kDefaultSuiteSeed);
    std::printf("%-8d %-12lld %-14s %s\n", n, static_cast<long long>(real.flaps),
                VirtualDuration::FromSecondsF(real.calc_duration_seconds.max())
                    .ToString()
                    .c_str(),
                real.flaps == 0 ? "test PASSES (bug latent!)" : "bug SURFACES");
  }

  int check_scale = full ? 256 : 96;
  std::printf("\nNow the single-machine scale check at N=%d:\n", check_scale);

  // Memoize once (Figure 2-d): colocated, contended, slow — but one-time.
  MemoStore store;
  Cluster::Options memoize_options =
      bug.MakeClusterOptions(check_scale, RunMode::kMemoize, kDefaultSuiteSeed);
  memoize_options.memo_store = &store;
  RunResult memoized = Cluster(std::move(memoize_options)).Run();
  std::printf("  memoization run: %s\n", memoized.Summary().c_str());

  // Persist the DB, as the real workflow would between debug sessions.
  const char* path = "/tmp/scalecheck_c3831.memo";
  if (Status saved = store.Save(path); !saved.ok()) {
    std::printf("  (could not persist memo DB: %s)\n", saved.ToString().c_str());
    return 1;
  }
  Result<MemoStore> reloaded = MemoStore::Load(path);
  if (!reloaded.ok()) {
    std::printf("  (could not reload memo DB: %s)\n",
                reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("  memo DB: %zu records, %lld output bytes -> %s\n",
              reloaded.value().size(),
              static_cast<long long>(reloaded.value().output_bytes()), path);

  // Replay (Figure 2-f): fast, accurate, repeatable.
  Cluster::Options replay_options =
      bug.MakeClusterOptions(check_scale, RunMode::kPilReplay, kDefaultSuiteSeed);
  replay_options.memo_store = &reloaded.value();
  RunResult replay = Cluster(std::move(replay_options)).Run();
  std::printf("  PIL replay:      %s\n\n", replay.Summary().c_str());

  std::printf("The replay reproduces the real-scale symptom on one machine; the\n"
              "one-time memoization run took %.1fx the replay's virtual time, and\n"
              "every further debug iteration only pays the replay cost.\n",
              memoized.test_duration.seconds() /
                  std::max(1.0, replay.test_duration.seconds()));
  return 0;
}
