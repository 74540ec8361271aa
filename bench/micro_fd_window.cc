// Microbenchmark of the phi failure detector's per-pair layer: N detectors
// each monitoring N peers (N^2 arrival windows), at N = 64 and 256. Each
// iteration is one heartbeat round: one Report per (detector, peer) pair,
// then a FailureSweep-shaped pass that compares every pair's Phi with the
// threshold. A fixed 200 rounds keeps the windows near the sample counts the
// benchmark workloads reach (at most ~213). Reports host ns per Report
// (`per_report`, the whole round divided by its reports) and the windows'
// slab bytes per pair (`bytes_per_pair`).
//
//   ./build/bench/micro_fd_window --benchmark_filter=FdRound

#include <benchmark/benchmark.h>

#include <vector>

#include "src/gossip/failure_detector.h"

namespace scalecheck {
namespace {

void BM_FdRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PhiAccrualFailureDetector::Config config;
  std::vector<PhiAccrualFailureDetector> detectors;
  detectors.reserve(n);
  for (int i = 0; i < n; ++i) {
    detectors.emplace_back(config);
  }
  int64_t round = 0;
  uint64_t convicted = 0;
  for (auto _ : state) {
    ++round;
    for (int i = 0; i < n; ++i) {
      PhiAccrualFailureDetector& fd = detectors[i];
      for (NodeId peer = 0; peer < n; ++peer) {
        // Heartbeats about 1 s apart, jittered per pair and per round.
        int64_t jitter_us = (peer * 7919 + i * 104729 + round * 31) % 200'000;
        fd.Report(peer, VirtualTime::Zero() + VirtualDuration::Seconds(round) +
                            VirtualDuration::Micros(jitter_us));
      }
      VirtualTime sweep = VirtualTime::Zero() + VirtualDuration::Seconds(round) +
                          VirtualDuration::Millis(500);
      for (NodeId peer = 0; peer < n; ++peer) {
        convicted += fd.Phi(peer, sweep) > config.threshold ? 1 : 0;
      }
    }
  }
  benchmark::DoNotOptimize(convicted);
  uint64_t bytes = 0;
  for (const PhiAccrualFailureDetector& fd : detectors) {
    bytes += fd.window_bytes();
  }
  double pairs = static_cast<double>(n) * n;
  state.counters["per_report"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * pairs,
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["bytes_per_pair"] = static_cast<double>(bytes) / pairs;
}

BENCHMARK(BM_FdRound)->Arg(64)->Arg(256)->Iterations(200)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scalecheck
