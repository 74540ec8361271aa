// Microbenchmark of the simulated job path (the event-engine and CPU-model
// layers): host nanoseconds per gossip-shaped job through SimThread and
// CpuModel, with 1, 16 and 64 stage threads sharing one 16-core machine.
// Each job is the ACK handler's shape — Compute, Lock, Run, Unlock, Run —
// with 32-byte captures holding a shared payload, and each iteration hands
// every thread one job and runs the simulator until they are all done.
//
//   ./build/bench/micro_sim_jobs --benchmark_filter=GossipShapedJob

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sim/thread.h"

namespace scalecheck {
namespace {

struct Payload {
  WorkUnits work = 20'000;  // 20 us on a dedicated core
};

void BM_GossipShapedJob(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Simulator sim(1);
  Machine machine(&sim, 0, MachineSpec::Nome());
  std::vector<std::unique_ptr<SimThread>> stages;
  std::vector<std::unique_ptr<SimMutex>> locks;
  for (int i = 0; i < threads; ++i) {
    stages.push_back(std::make_unique<SimThread>(&sim, &machine, "stage-" + std::to_string(i)));
    locks.push_back(std::make_unique<SimMutex>(&sim, "ring-" + std::to_string(i)));
  }
  auto payload = std::make_shared<Payload>();
  uint64_t merged = 0;
  for (auto _ : state) {
    for (int i = 0; i < threads; ++i) {
      SimMutex* lock = locks[i].get();
      Job job("gossip.handle-ack");
      job.Compute([&merged, payload, i, pad = 0] { return payload->work + i + pad; })
          .Lock(lock)
          .Run([&merged, payload, i, pad = 0] { merged += payload->work > 0 ? 1 + i * pad : 0; })
          .Unlock(lock)
          .Run([&merged, payload, i, pad = 0] { merged += payload != nullptr ? 1 + i * pad : 0; });
      stages[i]->Enqueue(std::move(job));
    }
    sim.RunUntilIdle();
  }
  benchmark::DoNotOptimize(merged);
  state.counters["per_job"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * threads,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_GossipShapedJob)->Arg(1)->Arg(16)->Arg(64);

}  // namespace
}  // namespace scalecheck
