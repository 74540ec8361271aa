// Quickstart: scale-check a known scalability bug on "one machine".
//
// This walks the whole Figure 2 pipeline for bug CASSANDRA-3831 at 64 nodes,
// one ExperimentSuite grid of four deployments:
//   1. real-scale baseline (what an expensive 64-machine test would show)
//   2. basic colocation (cheap but inaccurate)
//   3. memoization run (one-time, colocated, records input/output/time)
//   4. PIL-infused replay (fast AND accurate)
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart

#include <cstdio>

#include "src/common/logging.h"
#include "src/scalecheck/bug_catalog.h"
#include "src/scalecheck/experiment_suite.h"

using namespace scalecheck;

int main() {
  SetLogLevel(LogLevel::kWarning);

  // A bug scenario = calculator generation + threading/locking placement +
  // vnode count + triggering workload. "C3831" is the paper's cubic
  // pending-range calculation triggered by decommissioning a node.
  BugSpec bug = BugCatalog::Get("C3831");
  std::printf("Scale-checking %s: %s\n\n", bug.id.c_str(), bug.description.c_str());

  const int kNodes = 64;
  ScaleCheckResult full = RunComparison(bug, kNodes);

  std::printf("[1/3] real-scale baseline at N=%d...\n", kNodes);
  std::printf("      %s\n\n", full.real.Summary().c_str());

  std::printf("[2/3] basic colocation on one 16-core machine...\n");
  std::printf("      %s\n\n", full.colo.Summary().c_str());

  std::printf("[3/3] scale check: memoize once, then PIL replay...\n");
  std::printf("      memoize: %s\n", full.memoize.Summary().c_str());
  std::printf("      replay:  %s\n\n", full.replay.Summary().c_str());

  std::printf("flaps observed:   Real=%lld  Colo=%lld  SC+PIL=%lld\n",
              static_cast<long long>(full.real.flaps),
              static_cast<long long>(full.colo.flaps),
              static_cast<long long>(full.replay.flaps));
  std::printf("replay error vs real: %.0f%%   colo error vs real: %.0f%%\n",
              full.replay_flap_error * 100.0, full.colo_flap_error * 100.0);
  std::printf("memoization DB: %llu records; replay hit rate %.0f%%\n\n",
              static_cast<unsigned long long>(full.memo.records),
              100.0 * (full.replay.pil.replay_hits == 0
                           ? 0.0
                           : static_cast<double>(full.replay.pil.replay_hits) /
                                 static_cast<double>(full.replay.pil.replay_hits +
                                                     full.replay.pil.replay_misses)));

  std::printf("At 64 nodes nothing flaps anywhere — run scalecheck_cli --mode=experiment\n"
              "--table=fig3a to see the symptom surface at 256 nodes while 128-node\n"
              "testing stays green.\n");
  return 0;
}
