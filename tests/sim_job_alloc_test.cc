// The simulated job path allocates nothing once warm: a job's steps ride in
// recycled step blocks with their captures inline, the CPU model reuses its
// burst slots and completion buffer, and a thread's queue keeps its
// capacity. This binary replaces the global operator new with a counting
// one (each test file links into its own binary, so the replacement stays
// here) and counts the allocations of a gossip-shaped load.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/sim/thread.h"

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace scalecheck {
namespace {

// What a gossip message job captures: the node, the shared payload and the
// peer, 32 bytes in all.
struct Payload {
  WorkUnits work = 50'000;  // 50 us on a dedicated core
};

// Four stage threads on one two-core machine, so bursts overlap and share
// cores. Every 400 us each thread receives two pairs of ACK-shaped jobs
// (Compute, Lock, Run, Unlock, Run), the second pair 10 us after the first;
// the second job of each pair expires after 1 ns and always waits behind
// the first, so it is shed — at the front, or at the next enqueue once it is
// already stale.
class GossipShapedLoad {
 public:
  static constexpr int kThreads = 4;
  static constexpr int kJobsPerTick = kThreads * 4;

  GossipShapedLoad() : sim_(1), payload_(std::make_shared<Payload>()) {
    MachineSpec spec;
    spec.cores = 2.0;
    machine_ = std::make_unique<Machine>(&sim_, 0, spec);
    for (int i = 0; i < kThreads; ++i) {
      threads_.push_back(
          std::make_unique<SimThread>(&sim_, machine_.get(), "stage-" + std::to_string(i)));
      locks_.push_back(std::make_unique<SimMutex>(&sim_, "ring-" + std::to_string(i)));
    }
  }

  // Runs `jobs` jobs (a multiple of kJobsPerTick) to completion.
  void Run(int jobs) {
    ticks_left_ = jobs / kJobsPerTick;
    Tick();
    sim_.RunUntilIdle();
  }

  uint64_t completed() const { return Sum(&SimThread::jobs_completed); }
  uint64_t dropped() const { return Sum(&SimThread::jobs_dropped); }
  uint64_t steps_run() const { return steps_run_; }
  const CpuModel& cpu() const { return machine_->cpu(); }

 private:
  uint64_t Sum(uint64_t (SimThread::*count)() const) const {
    uint64_t total = 0;
    for (const auto& t : threads_) {
      total += (t.get()->*count)();
    }
    return total;
  }

  void Tick() {
    if (ticks_left_-- == 0) {
      return;
    }
    EnqueuePairs();
    sim_.ScheduleAfter(VirtualDuration::Micros(10), [this] { EnqueuePairs(); });
    sim_.ScheduleAfter(VirtualDuration::Micros(400), [this] { Tick(); });
  }

  void EnqueuePairs() {
    for (int i = 0; i < kThreads; ++i) {
      threads_[i]->Enqueue(AckShapedJob(i, /*expires=*/false));
      threads_[i]->Enqueue(AckShapedJob(i, /*expires=*/true));
    }
  }

  Job AckShapedJob(int peer, bool expires) {
    auto estimate = [this, payload = payload_, peer, pad = int32_t{0}] {
      return payload->work + peer + pad;
    };
    auto merge = [this, payload = payload_, peer, pad = int32_t{0}] {
      steps_run_ += static_cast<uint64_t>(payload->work > 0) + static_cast<uint64_t>(peer * pad);
    };
    auto finish = [this, payload = payload_, peer, pad = int32_t{0}] {
      steps_run_ += static_cast<uint64_t>(payload != nullptr) + static_cast<uint64_t>(peer * pad);
    };
    static_assert(sizeof(estimate) == 32 && sizeof(merge) == 32 && sizeof(finish) == 32);
    Job job("gossip.handle-ack");
    if (expires) {
      job.ExpiresAfter(VirtualDuration::Nanos(1));
    }
    SimMutex* lock = locks_[peer].get();
    job.Compute(estimate).Lock(lock).Run(merge).Unlock(lock).Run(finish);
    return job;
  }

  Simulator sim_;
  std::shared_ptr<Payload> payload_;
  std::unique_ptr<Machine> machine_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  std::vector<std::unique_ptr<SimMutex>> locks_;
  int ticks_left_ = 0;
  uint64_t steps_run_ = 0;
};

TEST(SimJobAlloc, GossipShapedJobsAllocateNothingOnceWarm) {
  constexpr int kJobs = 10'000;
  GossipShapedLoad load;
  load.Run(kJobs);  // warm-up: grows the queues, the slabs and the free list
  ASSERT_EQ(load.completed(), static_cast<uint64_t>(kJobs / 2));

  uint64_t before = g_news.load();
  load.Run(kJobs);
  uint64_t allocations = g_news.load() - before;

  EXPECT_EQ(allocations, 0u) << "allocations per job: "
                             << static_cast<double>(allocations) / kJobs;
  EXPECT_EQ(load.completed(), static_cast<uint64_t>(kJobs));
  EXPECT_EQ(load.dropped(), static_cast<uint64_t>(kJobs));  // half of each run
  EXPECT_EQ(load.steps_run(), 2u * static_cast<uint64_t>(kJobs));
  EXPECT_GT(load.cpu().peak_active(), 2) << "the bursts never contended";
}

// A job longer than one step block (the ring.recalc shape: lock, compute,
// clone, unlock, a PIL Async boundary, apply, finish) runs every step in
// order across the block boundary, and an Async step resumes it.
TEST(SimJobAlloc, JobLongerThanOneBlockRunsInOrder) {
  Simulator sim(1);
  Machine machine(&sim, 0, MachineSpec{});
  SimThread thread(&sim, &machine, "calc");
  SimMutex lock(&sim, "ring");
  std::vector<std::string> order;

  Job job("ring.recalc");  // nine steps: two blocks
  static_assert(Job::kStepsPerBlock < 9);
  job.Lock(&lock)
      .Compute([&] {
        order.push_back("estimate");
        return WorkUnits{1'000};
      })
      .Run([&] { order.push_back("clone"); })
      .Unlock(&lock)
      .Run([&] { order.push_back("prepare"); })
      .Async([&](std::function<void()> done) {
        order.push_back("boundary");
        sim.ScheduleAfter(VirtualDuration::Millis(5), std::move(done));
      })
      .Sleep([&] {
        order.push_back("sleep");
        return VirtualDuration::Millis(1);
      })
      .Run([&] { order.push_back("apply"); })
      .Run([&] { order.push_back("finish"); });
  thread.Enqueue(std::move(job));
  sim.RunUntilIdle();

  EXPECT_EQ(order, (std::vector<std::string>{"estimate", "clone", "prepare", "boundary",
                                             "sleep", "apply", "finish"}));
  EXPECT_EQ(thread.jobs_completed(), 1u);
  EXPECT_FALSE(lock.locked());
  EXPECT_EQ(sim.Now(), VirtualTime() + VirtualDuration::Micros(1) +
                           VirtualDuration::Millis(6));
}

}  // namespace
}  // namespace scalecheck
