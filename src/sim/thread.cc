#include "src/sim/thread.h"

#include <utility>

#include "src/common/check.h"

namespace scalecheck {

Job& Job::Run(std::function<void()> fn) {
  Step s;
  s.kind = StepKind::kRun;
  s.run = std::move(fn);
  steps_.push_back(std::move(s));
  return *this;
}

Job& Job::Compute(WorkUnits work) {
  return Compute([work] { return work; });
}

Job& Job::Compute(std::function<WorkUnits()> work_fn) {
  Step s;
  s.kind = StepKind::kCompute;
  s.work = std::move(work_fn);
  steps_.push_back(std::move(s));
  return *this;
}

Job& Job::Sleep(VirtualDuration d) {
  return Sleep([d] { return d; });
}

Job& Job::Sleep(std::function<VirtualDuration()> d_fn) {
  Step s;
  s.kind = StepKind::kSleep;
  s.duration = std::move(d_fn);
  steps_.push_back(std::move(s));
  return *this;
}

Job& Job::Lock(SimMutex* mutex) {
  CHECK_NOTNULL(mutex);
  Step s;
  s.kind = StepKind::kLock;
  s.mutex = mutex;
  steps_.push_back(std::move(s));
  return *this;
}

Job& Job::Unlock(SimMutex* mutex) {
  CHECK_NOTNULL(mutex);
  Step s;
  s.kind = StepKind::kUnlock;
  s.mutex = mutex;
  steps_.push_back(std::move(s));
  return *this;
}

Job& Job::Async(std::function<void(std::function<void()>)> fn) {
  Step s;
  s.kind = StepKind::kAsync;
  s.async = std::move(fn);
  steps_.push_back(std::move(s));
  return *this;
}

SimThread::SimThread(Simulator* sim, Machine* machine, std::string name)
    : sim_(sim), machine_(machine), name_(std::move(name)) {
  CHECK_NOTNULL(sim);
  CHECK_NOTNULL(machine);
}

SimThread::~SimThread() { Kill(); }

void SimThread::Enqueue(Job job) {
  if (dead_) {
    return;
  }
  if (!job.has_intended_) {
    job.intended_ = sim_->Now();
    job.has_intended_ = true;
  }
  queue_.push_back(std::move(job));
  // Now() never moves back, so a queued job past its expiry can only be shed:
  // release its closures (and the payloads they pin) now, not at the front.
  // The job stays queued as a tombstone and is shed and counted on time.
  while (released_ < queue_.size() && Expired(queue_[released_])) {
    ReleaseSteps(queue_[released_++]);
  }
  if (!busy_) {
    StartNextJob();
  }
}

void SimThread::Kill() {
  dead_ = true;
  queue_.clear();
  released_ = 0;
  ++step_gen_;  // invalidate stale async completions
  if (active_cpu_task_ != 0) {
    machine_->cpu().CancelTask(active_cpu_task_);
    active_cpu_task_ = 0;
  }
  if (active_timer_ != kInvalidEvent) {
    sim_->Cancel(active_timer_);
    active_timer_ = kInvalidEvent;
  }
  busy_ = false;
}

void SimThread::Revive() {
  CHECK(dead_) << "Revive on a live thread " << name_;
  CHECK(!busy_);
  dead_ = false;
}

bool SimThread::Expired(const Job& job) const {
  return job.has_expiry_ && sim_->Now() > job.intended_ + job.expiry_;
}

void SimThread::ReleaseSteps(Job& job) {
  // Swapped out first, so a closure's destructor never sees a half-torn job.
  std::vector<Job::Step> steps;
  steps.swap(job.steps_);
}

void SimThread::StartNextJob() {
  CHECK(!busy_);
  while (!queue_.empty()) {
    bool expired = Expired(queue_.front());
    if (!expired) {
      current_ = std::move(queue_.front());
    }
    queue_.pop_front();
    if (released_ > 0) {
      --released_;
    }
    if (expired) {
      // Shed the task, Cassandra-stage style: it is too stale to be useful.
      ++jobs_dropped_;
      continue;
    }
    step_index_ = 0;
    busy_ = true;
    machine_->lateness().Record(current_.intended_, sim_->Now());
    RunSteps();
    if (busy_) {
      // Parked on an async step; resume via OnStepComplete.
      return;
    }
  }
}

void SimThread::RunSteps() {
  while (true) {
    if (dead_) {
      busy_ = false;
      ReleaseSteps(current_);
      return;
    }
    if (step_index_ >= current_.steps_.size()) {
      ++jobs_completed_;
      busy_ = false;
      ReleaseSteps(current_);
      // Let the caller (StartNextJob loop or OnStepComplete) pick the next
      // job; avoid recursing here.
      return;
    }
    Job::Step& step = current_.steps_[step_index_];
    switch (step.kind) {
      case Job::StepKind::kRun:
        step.run();
        ++step_index_;
        break;
      case Job::StepKind::kUnlock:
        step.mutex->Release();
        ++step_index_;
        break;
      case Job::StepKind::kCompute: {
        WorkUnits work = step.work();
        CHECK_GE(work, 0);
        total_work_ += work;
        step_started_ = sim_->Now();
        uint64_t gen = ++step_gen_;
        in_step_start_ = true;
        step_completed_sync_ = false;
        active_cpu_task_ = machine_->cpu().StartTask(
            work, [this, gen] { OnStepComplete(gen); });
        in_step_start_ = false;
        if (!step_completed_sync_) {
          return;  // parked until the CPU model completes the burst
        }
        compute_time_ += sim_->Now() - step_started_;
        active_cpu_task_ = 0;
        ++step_index_;
        break;
      }
      case Job::StepKind::kSleep: {
        VirtualDuration d = step.duration();
        CHECK(!d.IsNegative());
        step_started_ = sim_->Now();
        uint64_t gen = ++step_gen_;
        active_timer_ = sim_->ScheduleAfter(d, [this, gen] { OnStepComplete(gen); });
        return;  // parked until the timer fires
      }
      case Job::StepKind::kLock: {
        step_started_ = sim_->Now();
        uint64_t gen = ++step_gen_;
        in_step_start_ = true;
        step_completed_sync_ = false;
        step.mutex->Acquire([this, gen] { OnStepComplete(gen); });
        in_step_start_ = false;
        if (!step_completed_sync_) {
          return;  // parked until the lock is granted
        }
        ++step_index_;
        break;
      }
      case Job::StepKind::kAsync: {
        step_started_ = sim_->Now();
        uint64_t gen = ++step_gen_;
        in_step_start_ = true;
        step_completed_sync_ = false;
        step.async([this, gen] { OnStepComplete(gen); });
        in_step_start_ = false;
        if (!step_completed_sync_) {
          return;  // parked until `done` is invoked
        }
        ++step_index_;
        break;
      }
    }
  }
}

void SimThread::OnStepComplete(uint64_t gen) {
  if (dead_ || gen != step_gen_) {
    return;  // stale wakeup (thread killed or step superseded)
  }
  if (in_step_start_) {
    // The async operation completed synchronously inside RunSteps; signal the
    // loop to continue instead of re-entering it.
    step_completed_sync_ = true;
    return;
  }
  CHECK(busy_);
  Job::Step& step = current_.steps_[step_index_];
  switch (step.kind) {
    case Job::StepKind::kCompute:
      compute_time_ += sim_->Now() - step_started_;
      active_cpu_task_ = 0;
      break;
    case Job::StepKind::kSleep:
      sleep_time_ += sim_->Now() - step_started_;
      active_timer_ = kInvalidEvent;
      break;
    default:
      break;
  }
  ++step_index_;
  RunSteps();
  if (!busy_) {
    StartNextJob();
  }
}

}  // namespace scalecheck
