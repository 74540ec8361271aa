// Reproduces the §8 colocation-limit experiment:
//
//   "Currently, on the 16-core 32-GB Nome machine, we can reach a maximum
//    colocation factor of 512. When we tried colocating 600 nodes, we hit
//    one of the following limitations: high CPU contention (>90%
//    utilization), memory exhaustion (nodes receive out-of-memory exceptions
//    and crash), or high event lateness (queuing delays from thread context
//    switching)."
//
// and §6's scale-checkability comparison: one process per node (JVM-like
// 70 MB overhead, per-node daemon threads) vs the paper's redesign (single
// process, SEDA-like global event architecture). The per-process design dies
// of memory exhaustion far below 512; the redesigned runtime reaches ~512
// and then hits CPU/lateness walls — including the §6 space-oblivious
// over-allocation variant as a third column.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/logging.h"

namespace scalecheck {
namespace {

// The table cell is now the FidelityGuard's own verdict: instead of the bench
// re-deriving thresholds, the guard that runs inside every simulation names
// the first budget it saw violated (§8's CPU / memory / lateness triad).
std::string Verdict(const RunResult& r) {
  const FidelityReport& fidelity = r.fidelity;
  std::string verdict;
  if (fidelity.verdict == FidelityVerdict::kOk) {
    verdict = "OK";
  } else {
    verdict = StrFormat("%s:%s", FidelityVerdictName(fidelity.verdict),
                        fidelity.violated_budget.c_str());
    if (r.oom) {
      verdict += StrFormat(" (%d crashed)", r.crashed_nodes);
    }
  }
  return StrFormat("%s [cpu %.0f%%, p99 %s]", verdict.c_str(),
                   r.max_cpu_utilization * 100, r.lateness_p99.ToString().c_str());
}

}  // namespace
}  // namespace scalecheck

int main(int argc, char** argv) {
  using namespace scalecheck;
  SetLogLevel(LogLevel::kError);  // OOM crashes are the point, not noise
  std::printf(
      "Section 8: maximum colocation factor on one 16-core/32GB machine\n"
      "(per-process vs SEDA-redesigned runtime vs space-oblivious rebalance)\n\n");

  constexpr uint64_t kProbeSeed = 1234;
  ExperimentSpec grid;
  // The three runtime variants: same calculator, same small scale-out
  // (rebalance allocations are the point of §6), different deployment
  // engineering.
  grid.bugs = {ColocationProbeSpec(ExecModel::kProcessPerNode, false),
               ColocationProbeSpec(ExecModel::kSedaSingleProcess, false),
               ColocationProbeSpec(ExecModel::kSedaSingleProcess, true)};
  grid.modes = {RunMode::kColocated};
  grid.scales = {128, 256, 384, 448, 512, 640, 1024, 2048};
  grid.seeds = {kProbeSeed};
  grid.jobs = bench::JobsFromArgs(argc, argv);
  SuiteReport report = ExperimentSuite(grid).Run();

  std::vector<std::string> header = {"N", "process/node", "SEDA redesign",
                                     "SEDA + space-oblivious"};
  std::vector<std::vector<std::string>> rows;
  for (int n : grid.scales) {
    rows.push_back({
        StrFormat("%d", n),
        Verdict(report.Get("probe-process", RunMode::kColocated, n, kProbeSeed)),
        Verdict(report.Get("probe-seda", RunMode::kColocated, n, kProbeSeed)),
        Verdict(report.Get("probe-oblivious", RunMode::kColocated, n, kProbeSeed)),
    });
  }
  std::printf("%s\n", RenderTable(header, rows).c_str());

  // Machine-readable guard reports for the SEDA sweep: the ok -> degraded ->
  // invalid progression over N, each step naming the violated budget and the
  // virtual time of the first crossing.
  std::printf("SEDA-redesign fidelity reports over N:\n");
  for (int n : grid.scales) {
    const RunResult& r = report.Get("probe-seda", RunMode::kColocated, n, kProbeSeed);
    std::printf("  n=%-4d %s\n", n, r.fidelity.ToJson().c_str());
  }
  std::printf("\nExpected: process-per-node exhausts 32GB well below 512 nodes; the\n"
              "redesigned runtime reaches ~512 before hitting CPU/lateness walls;\n"
              "space-oblivious allocation OOMs at a fraction of that.\n");
  return 0;
}
