#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/thread.h"

namespace scalecheck {
namespace {

class ExpiryFixture : public ::testing::Test {
 protected:
  ExpiryFixture() : sim_(1) {
    MachineSpec spec;
    spec.cores = 1.0;
    spec.ctx_switch_penalty = 0.0;
    machine_ = std::make_unique<Machine>(&sim_, 0, spec);
    thread_ = std::make_unique<SimThread>(&sim_, machine_.get(), "t");
  }

  // A job whose one Run step logs `label` and reads a payload that only its
  // closure owns; `alive` observes whether the closure still holds it. A
  // zero `expiry` means none.
  Job PayloadJob(const char* label, std::weak_ptr<int>* alive,
                 VirtualDuration expiry = VirtualDuration::Zero()) {
    auto payload = std::make_shared<int>(7);
    *alive = payload;
    Job job(label);
    if (!expiry.IsZero()) {
      job.ExpiresAfter(expiry);
    }
    job.Run([this, label, payload] {
      EXPECT_EQ(*payload, 7);
      order_.push_back(label);
    });
    return job;
  }

  Job Hog(int64_t work) {
    Job job("hog");
    job.Compute(work).Run([this] { order_.push_back("hog"); });
    return job;
  }

  // Runs `fn` at virtual time `at`.
  void At(VirtualDuration at, std::function<void()> fn) {
    sim_.ScheduleAt(VirtualTime() + at, std::move(fn));
  }

  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<SimThread> thread_;
  std::vector<std::string> order_;
};

TEST_F(ExpiryFixture, FreshJobsRunNormally) {
  bool ran = false;
  Job job("j");
  job.ExpiresAfter(VirtualDuration::Seconds(1));
  job.Run([&] { ran = true; });
  thread_->Enqueue(std::move(job));
  sim_.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(thread_->jobs_dropped(), 0u);
}

TEST_F(ExpiryFixture, StaleJobsAreShedUnstarted) {
  // A 10s hog delays the queue; jobs with a 2s expiry behind it are dropped.
  Job hog("hog");
  hog.Compute(10'000'000'000);
  thread_->Enqueue(std::move(hog));

  int ran = 0;
  for (int i = 0; i < 5; ++i) {
    Job job("stale");
    job.ExpiresAfter(VirtualDuration::Seconds(2));
    job.Run([&] { ++ran; });
    thread_->Enqueue(std::move(job));
  }
  Job durable("durable");  // no expiry: survives any wait
  durable.Run([&] { ++ran; });
  thread_->Enqueue(std::move(durable));

  sim_.RunUntilIdle();
  EXPECT_EQ(ran, 1);  // only the unexpiring job
  EXPECT_EQ(thread_->jobs_dropped(), 5u);
}

TEST_F(ExpiryFixture, ExpiryMeasuredFromIntendedTime) {
  Job hog("hog");
  hog.Compute(3'000'000'000);  // 3s
  thread_->Enqueue(std::move(hog));

  // Intended 2s in the past already; 4s expiry still leaves 3s of patience.
  bool ran = false;
  Job job("j");
  job.IntendedAt(sim_.Now());
  job.ExpiresAfter(VirtualDuration::Seconds(4));
  job.Run([&] { ran = true; });
  thread_->Enqueue(std::move(job));
  sim_.RunUntilIdle();
  EXPECT_TRUE(ran);  // 3s wait < 4s expiry
}

TEST_F(ExpiryFixture, DroppedJobsStillAllowLaterWork) {
  Job hog("hog");
  hog.Compute(5'000'000'000);
  thread_->Enqueue(std::move(hog));
  Job stale("stale");
  stale.ExpiresAfter(VirtualDuration::Millis(100));
  stale.Run([] { FAIL() << "stale job must not run"; });
  thread_->Enqueue(std::move(stale));
  sim_.RunUntilIdle();

  bool ran = false;
  Job fresh("fresh");
  fresh.ExpiresAfter(VirtualDuration::Seconds(1));
  fresh.Run([&] { ran = true; });
  thread_->Enqueue(std::move(fresh));
  sim_.RunUntilIdle();
  EXPECT_TRUE(ran);
}

TEST_F(ExpiryFixture, ExpiredQueuedJobIsReleasedAtTheNextEnqueue) {
  thread_->Enqueue(Hog(10'000'000'000));  // busy until t=10s
  std::weak_ptr<int> stale;
  thread_->Enqueue(PayloadJob("stale", &stale, VirtualDuration::Seconds(2)));

  At(VirtualDuration::Seconds(3), [&] {
    EXPECT_FALSE(stale.expired());  // expired, but nothing enqueued since
    std::weak_ptr<int> next;
    thread_->Enqueue(PayloadJob("next", &next));
    EXPECT_TRUE(stale.expired());  // released long before the front
    EXPECT_FALSE(next.expired());
    EXPECT_EQ(thread_->queue_depth(), 2u);  // the tombstone still waits
    EXPECT_EQ(thread_->jobs_dropped(), 0u);
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(thread_->jobs_dropped(), 1u);  // shed at the front, as before
  EXPECT_EQ(thread_->jobs_completed(), 2u);
  EXPECT_EQ(order_, (std::vector<std::string>{"hog", "next"}));
}

TEST_F(ExpiryFixture, UnexpiredAndUnexpiringJobsKeepTheirClosures) {
  thread_->Enqueue(Hog(10'000'000'000));
  std::weak_ptr<int> patient;
  std::weak_ptr<int> durable;
  thread_->Enqueue(PayloadJob("patient", &patient, VirtualDuration::Seconds(20)));
  thread_->Enqueue(PayloadJob("durable", &durable));  // no expiry

  At(VirtualDuration::Seconds(5), [&] {
    std::weak_ptr<int> next;
    thread_->Enqueue(PayloadJob("next", &next));
    EXPECT_FALSE(patient.expired());
    EXPECT_FALSE(durable.expired());
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(thread_->jobs_dropped(), 0u);
  EXPECT_EQ(order_, (std::vector<std::string>{"hog", "patient", "durable", "next"}));
}

TEST_F(ExpiryFixture, RunningJobIsNeverReleasedMidStep) {
  // The running job outlives its own 1s expiry inside a 5s burst, then
  // enqueues onto its own thread and still reads its payload afterwards.
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> alive = payload;
  Job running("running");
  running.ExpiresAfter(VirtualDuration::Seconds(1))
      .Compute(5'000'000'000)
      .Run([this, payload] {
        std::weak_ptr<int> ignored;
        thread_->Enqueue(PayloadJob("next", &ignored));
        EXPECT_EQ(*payload, 7);
        order_.push_back("running");
      });
  payload.reset();
  thread_->Enqueue(std::move(running));

  At(VirtualDuration::Seconds(3), [&] {
    std::weak_ptr<int> ignored;
    thread_->Enqueue(PayloadJob("mid-burst", &ignored));
    EXPECT_FALSE(alive.expired());
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(order_, (std::vector<std::string>{"running", "mid-burst", "next"}));
  EXPECT_TRUE(alive.expired());
}

TEST_F(ExpiryFixture, FinishedAndShedJobsReleaseTheirClosures) {
  std::weak_ptr<int> done;
  thread_->Enqueue(PayloadJob("done", &done));
  EXPECT_TRUE(done.expired());  // ran synchronously; the idle thread keeps nothing

  thread_->Enqueue(Hog(3'000'000'000));
  std::weak_ptr<int> shed;
  thread_->Enqueue(PayloadJob("shed", &shed, VirtualDuration::Seconds(1)));
  sim_.RunUntilIdle();  // the shed job is the last one the thread looked at
  EXPECT_TRUE(shed.expired());
  EXPECT_EQ(thread_->jobs_dropped(), 1u);
  EXPECT_TRUE(thread_->idle());
}

TEST_F(ExpiryFixture, SheddingCountsLatenessAndOrderAreUnchanged) {
  // t=0: a 4s hog; behind it jobs with expiries of 1s..6s and one without.
  thread_->Enqueue(Hog(4'000'000'000));
  std::vector<std::weak_ptr<int>> alive(6);
  const char* labels[] = {"e1", "e2", "e3", "e4", "e5", "e6"};
  for (int i = 0; i < 6; ++i) {
    thread_->Enqueue(PayloadJob(labels[i], &alive[i], VirtualDuration::Seconds(i + 1)));
  }
  std::weak_ptr<int> durable;
  thread_->Enqueue(PayloadJob("durable", &durable));

  // At t=2.5s the leading e1, e2 are past expiry: released; e3 stops the walk.
  At(VirtualDuration::Millis(2500), [&] {
    std::weak_ptr<int> ignored;
    thread_->Enqueue(PayloadJob("late", &ignored));
    EXPECT_TRUE(alive[0].expired());
    EXPECT_TRUE(alive[1].expired());
    for (int i = 2; i < 6; ++i) {
      EXPECT_FALSE(alive[i].expired()) << labels[i];
    }
  });
  sim_.RunUntilIdle();
  // At t=4s the front reaches e1..e3 (4s > 3s): shed; e4 (4s, not > 4s) runs.
  EXPECT_EQ(thread_->jobs_dropped(), 3u);
  EXPECT_EQ(order_, (std::vector<std::string>{"hog", "e4", "e5", "e6", "durable", "late"}));
  EXPECT_EQ(machine_->lateness().count(), 6);  // the hog and five that ran
  EXPECT_EQ(machine_->lateness().max(), VirtualDuration::Seconds(4));
}

TEST_F(ExpiryFixture, ReleaseFollowsTheFrontAcrossPops) {
  thread_->Enqueue(Hog(2'000'000'000));
  std::weak_ptr<int> first;
  thread_->Enqueue(PayloadJob("first", &first, VirtualDuration::Seconds(1)));
  At(VirtualDuration::Millis(1500), [&] {
    std::weak_ptr<int> ignored;
    thread_->Enqueue(PayloadJob("second", &ignored, VirtualDuration::Seconds(1)));
    EXPECT_TRUE(first.expired());
  });
  // t=2s: "first" is shed, "second" runs and the queue drains.
  std::weak_ptr<int> third;
  At(VirtualDuration::Seconds(3), [&] {
    thread_->Enqueue(Hog(2'000'000'000));
    thread_->Enqueue(PayloadJob("third", &third, VirtualDuration::Seconds(1)));
  });
  At(VirtualDuration::Millis(4500), [&] {
    std::weak_ptr<int> ignored;
    thread_->Enqueue(PayloadJob("fourth", &ignored));
    EXPECT_TRUE(third.expired());
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(thread_->jobs_dropped(), 2u);
  EXPECT_EQ(order_, (std::vector<std::string>{"hog", "second", "hog", "fourth"}));
}

TEST_F(ExpiryFixture, KillAndReviveStillQueueAndShed) {
  thread_->Enqueue(Hog(10'000'000'000));
  std::weak_ptr<int> before[2];
  thread_->Enqueue(PayloadJob("before0", &before[0], VirtualDuration::Seconds(1)));
  thread_->Enqueue(PayloadJob("before1", &before[1], VirtualDuration::Seconds(1)));
  At(VirtualDuration::Seconds(2), [&] {
    std::weak_ptr<int> ignored;
    thread_->Enqueue(PayloadJob("a", &ignored, VirtualDuration::Seconds(1)));
    thread_->Enqueue(PayloadJob("b", &ignored, VirtualDuration::Seconds(1)));
    EXPECT_TRUE(before[0].expired());
    EXPECT_TRUE(before[1].expired());
    thread_->Kill();
    thread_->Revive();
    thread_->Enqueue(Hog(10'000'000'000));
  });
  std::weak_ptr<int> after;
  At(VirtualDuration::Seconds(3), [&] {
    thread_->Enqueue(PayloadJob("after", &after, VirtualDuration::Seconds(1)));
  });
  At(VirtualDuration::Seconds(5), [&] {
    std::weak_ptr<int> next;
    thread_->Enqueue(PayloadJob("next", &next));
    EXPECT_TRUE(after.expired());
    EXPECT_EQ(thread_->queue_depth(), 2u);
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(thread_->jobs_dropped(), 1u);  // "after"; the killed queue is not shed
  EXPECT_EQ(order_, (std::vector<std::string>{"hog", "next"}));
}

}  // namespace
}  // namespace scalecheck
