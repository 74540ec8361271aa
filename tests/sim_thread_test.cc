#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/thread.h"
#include "src/transport/sim_substrate.h"

namespace scalecheck {
namespace {

class ThreadFixture : public ::testing::Test {
 protected:
  ThreadFixture() : sim_(1) {
    MachineSpec spec;
    spec.cores = 1.0;
    spec.ctx_switch_penalty = 0.0;
    machine_ = std::make_unique<Machine>(&sim_, 0, spec);
    thread_ = std::make_unique<SimThread>(&sim_, machine_.get(), "t");
  }

  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<SimThread> thread_;
};

TEST_F(ThreadFixture, RunStepsExecuteInOrder) {
  std::vector<int> order;
  Job job("j");
  job.Run([&] { order.push_back(1); }).Run([&] { order.push_back(2); }).Run([&] {
    order.push_back(3);
  });
  thread_->Enqueue(std::move(job));
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(thread_->jobs_completed(), 1u);
}

TEST_F(ThreadFixture, ComputeAdvancesVirtualTime) {
  double finished_at = -1;
  Job job("j");
  job.Compute(500'000'000).Run([&] { finished_at = sim_.Now().seconds(); });
  thread_->Enqueue(std::move(job));
  sim_.RunUntilIdle();
  EXPECT_NEAR(finished_at, 0.5, 1e-6);
  EXPECT_EQ(thread_->total_work(), 500'000'000);
  EXPECT_NEAR(thread_->compute_time().seconds(), 0.5, 1e-6);
}

TEST_F(ThreadFixture, SleepDoesNotUseCpu) {
  Job job("j");
  job.Sleep(VirtualDuration::Seconds(2));
  thread_->Enqueue(std::move(job));
  sim_.RunUntilIdle();
  EXPECT_NEAR(sim_.Now().seconds(), 2.0, 1e-9);
  EXPECT_NEAR(thread_->sleep_time().seconds(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(machine_->cpu().busy_core_seconds(), 0.0);
}

TEST_F(ThreadFixture, JobsRunFifo) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    Job job("j");
    job.Compute(1000).Run([&order, i] { order.push_back(i); });
    thread_->Enqueue(std::move(job));
  }
  EXPECT_GE(thread_->queue_depth(), 4u);  // first may have started
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(ThreadFixture, LazyWorkEvaluatedAtStepStart) {
  WorkUnits work = 0;
  Job first("a");
  first.Run([&] { work = 1'000'000'000; });
  Job second("b");
  second.Compute([&] { return work; });
  thread_->Enqueue(std::move(first));
  thread_->Enqueue(std::move(second));
  sim_.RunUntilIdle();
  EXPECT_NEAR(sim_.Now().seconds(), 1.0, 1e-6);
}

TEST_F(ThreadFixture, LockSerializesAcrossThreads) {
  SimMutex mutex(&sim_, "m");
  SimThread other(&sim_, machine_.get(), "other");
  std::vector<int> order;

  Job a("a");
  a.Lock(&mutex)
      .Run([&] { order.push_back(1); })
      .Sleep(VirtualDuration::Seconds(1))
      .Run([&] { order.push_back(2); })
      .Unlock(&mutex);
  Job b("b");
  b.Lock(&mutex).Run([&] { order.push_back(3); }).Unlock(&mutex);

  thread_->Enqueue(std::move(a));
  other.Enqueue(std::move(b));
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_NEAR(sim_.Now().seconds(), 1.0, 1e-6);
}

TEST_F(ThreadFixture, AsyncStepParksUntilDone) {
  std::function<void()> resume;
  std::vector<int> order;
  Job job("j");
  job.Run([&] { order.push_back(1); })
      .Async([&](std::function<void()> done) { resume = std::move(done); })
      .Run([&] { order.push_back(2); });
  thread_->Enqueue(std::move(job));
  sim_.RunUntilIdle();
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_FALSE(thread_->idle());
  resume();
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(thread_->idle());
}

TEST_F(ThreadFixture, AsyncCompletingSynchronouslyContinues) {
  std::vector<int> order;
  Job job("j");
  job.Async([](std::function<void()> done) { done(); }).Run([&] {
    order.push_back(1);
  });
  thread_->Enqueue(std::move(job));
  sim_.RunUntilIdle();
  EXPECT_EQ(order, std::vector<int>{1});
}

TEST_F(ThreadFixture, KillAbortsCurrentJobAndQueue) {
  std::vector<int> order;
  Job a("a");
  a.Compute(1'000'000'000).Run([&] { order.push_back(1); });
  Job b("b");
  b.Run([&] { order.push_back(2); });
  thread_->Enqueue(std::move(a));
  thread_->Enqueue(std::move(b));
  sim_.ScheduleAfter(VirtualDuration::Millis(100), [&] { thread_->Kill(); });
  sim_.RunUntilIdle();
  EXPECT_TRUE(order.empty());
  EXPECT_TRUE(thread_->dead());
  EXPECT_EQ(machine_->cpu().active_count(), 0);  // burst cancelled
}

TEST_F(ThreadFixture, EnqueueAfterKillIsDropped) {
  thread_->Kill();
  Job job("j");
  bool ran = false;
  job.Run([&] { ran = true; });
  thread_->Enqueue(std::move(job));
  sim_.RunUntilIdle();
  EXPECT_FALSE(ran);
}

// A stage op runs as its Compute step's work function, so an op that kills
// its own thread (a crash from inside the stage) must start no burst and
// never run `done`.
TEST_F(ThreadFixture, StageOpThatKillsItsThreadStartsNoBurst) {
  SimStage stage(thread_.get());
  bool done = false;
  stage.Submit(
      "kv.op",
      [&] {
        thread_->Kill();
        return WorkUnits{1'000'000};
      },
      [&] { done = true; });
  EXPECT_TRUE(thread_->dead());
  EXPECT_EQ(machine_->cpu().tasks_started(), 0u);
  sim_.RunUntilIdle();
  EXPECT_FALSE(done);
  EXPECT_EQ(thread_->total_work(), 0);
}

TEST_F(ThreadFixture, LatenessRecordedAgainstIntendedTime) {
  Job hog("hog");
  hog.Compute(2'000'000'000);  // blocks the thread 2s
  thread_->Enqueue(std::move(hog));

  sim_.ScheduleAfter(VirtualDuration::Seconds(1), [&] {
    Job late("late");
    late.IntendedAt(sim_.Now());
    late.Run([] {});
    thread_->Enqueue(std::move(late));
  });
  sim_.RunUntilIdle();
  // The late job waited from t=1 to t=2 behind the hog.
  EXPECT_GE(machine_->lateness().max().seconds(), 0.9);
}

}  // namespace
}  // namespace scalecheck
