#include "src/sim/thread.h"

#include <sanitizer/asan_interface.h>

#include <utility>

#include "src/common/check.h"

namespace scalecheck {

// A block of steps; slots past the job's last step stay empty.
struct Job::StepBlock {
  Step steps[kStepsPerBlock];
  StepBlock* next = nullptr;
};

namespace {

static_assert(sizeof(Job::Step) == 48, "a step is 40 bytes of capture plus its ops pointer");

// The free list of step blocks, one per host thread: a simulator runs one
// event at a time on one host thread, so a job is built, run and released on
// the thread that owns its blocks, and suite workers never share a list. A
// block is allocated only when the list is empty, so the list never holds
// more blocks than were live at once. Parked blocks are poisoned under ASan,
// so a step used after its block was recycled is reported.
class StepBlockPool {
 public:
  StepBlockPool() = default;
  StepBlockPool(const StepBlockPool&) = delete;
  StepBlockPool& operator=(const StepBlockPool&) = delete;
  ~StepBlockPool() {
    while (free_ != nullptr) {
      Job::StepBlock* block = free_;
      free_ = block->next;
      ASAN_UNPOISON_MEMORY_REGION(block->steps, sizeof(block->steps));
      delete block;
    }
  }

  Job::StepBlock* Get() {
    if (free_ == nullptr) {
      return new Job::StepBlock;
    }
    Job::StepBlock* block = free_;
    free_ = block->next;
    ASAN_UNPOISON_MEMORY_REGION(block->steps, sizeof(block->steps));
    block->next = nullptr;
    return block;
  }

  void Put(Job::StepBlock* block) {
    ASAN_POISON_MEMORY_REGION(block->steps, sizeof(block->steps));
    block->next = free_;
    free_ = block;
  }

 private:
  Job::StepBlock* free_ = nullptr;
};

thread_local StepBlockPool step_blocks;

}  // namespace

void StepDone::operator()() const { thread_->OnStepComplete(gen_); }

Job& Job::operator=(Job&& other) noexcept {
  if (this != &other) {
    ReleaseSteps();
    label_ = other.label_;
    head_ = std::exchange(other.head_, nullptr);
    tail_ = std::exchange(other.tail_, nullptr);
    size_ = std::exchange(other.size_, 0);
    has_intended_ = other.has_intended_;
    has_expiry_ = other.has_expiry_;
    intended_ = other.intended_;
    expiry_ = other.expiry_;
  }
  return *this;
}

Job::Step& Job::NextStep() {
  uint32_t slot = size_ % kStepsPerBlock;
  if (slot == 0) {
    StepBlock* block = step_blocks.Get();
    if (tail_ == nullptr) {
      head_ = block;
    } else {
      tail_->next = block;
    }
    tail_ = block;
  }
  ++size_;
  return tail_->steps[slot];
}

void Job::ReleaseSteps() {
  // Detached first, so a closure's destructor never sees a half-torn job.
  StepBlock* block = std::exchange(head_, nullptr);
  tail_ = nullptr;
  size_ = 0;
  while (block != nullptr) {
    for (Step& step : block->steps) {
      step.Reset();
    }
    StepBlock* next = block->next;
    step_blocks.Put(block);
    block = next;
  }
}

Job& Job::Lock(SimMutex* mutex) {
  CHECK_NOTNULL(mutex);
  return Async([mutex](const StepDone& done) { mutex->Acquire(done); });
}

Job& Job::Unlock(SimMutex* mutex) {
  CHECK_NOTNULL(mutex);
  return Run([mutex] { mutex->Release(); });
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
  while (released_ < queue_depth() && Expired(queue_[queue_head_ + released_])) {
    queue_[queue_head_ + released_++].ReleaseSteps();
  }
  if (!busy_) {
    StartNextJob();
  }
}

void SimThread::Kill() {
  dead_ = true;
  queue_.clear();
  queue_head_ = 0;
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

void SimThread::PopFront() {
  queue_[queue_head_++].ReleaseSteps();
  if (released_ > 0) {
    --released_;
  }
  if (queue_head_ == queue_.size()) {
    queue_.clear();
    queue_head_ = 0;
  } else if (2 * queue_head_ >= queue_.size()) {
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
    queue_head_ = 0;
  }
}

void SimThread::AdvanceStep() {
  ++step_index_;
  if (++step_slot_ == Job::kStepsPerBlock) {
    step_block_ = step_block_->next;
    step_slot_ = 0;
  }
}

void SimThread::StartNextJob() {
  CHECK(!busy_);
  while (queue_head_ < queue_.size()) {
    bool expired = Expired(queue_[queue_head_]);
    if (!expired) {
      current_ = std::move(queue_[queue_head_]);
    }
    PopFront();
    if (expired) {
      // Shed the task, Cassandra-stage style: it is too stale to be useful.
      ++jobs_dropped_;
      continue;
    }
    step_block_ = current_.head_;
    step_slot_ = 0;
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
      current_.ReleaseSteps();
      return;
    }
    if (step_index_ >= current_.size_) {
      ++jobs_completed_;
      busy_ = false;
      current_.ReleaseSteps();
      // Let the caller (StartNextJob loop or OnStepComplete) pick the next
      // job; avoid recursing here.
      return;
    }
    step_started_ = sim_->Now();
    uint64_t gen = ++step_gen_;
    in_step_start_ = true;
    step_completed_sync_ = false;
    Job::StepAction action = step_block_->steps[step_slot_](StepDone(this, gen));
    in_step_start_ = false;
    if (dead_) {
      continue;  // the step killed its own thread (a crash from inside a job)
    }
    switch (action.kind) {
      case Job::StepKind::kRun:
        break;
      case Job::StepKind::kCompute: {
        WorkUnits work = action.amount;
        CHECK_GE(work, 0);
        total_work_ += work;
        in_step_start_ = true;
        active_cpu_task_ = machine_->cpu().StartTask(work, StepDone(this, gen));
        in_step_start_ = false;
        if (!step_completed_sync_) {
          parked_kind_ = action.kind;
          return;  // parked until the CPU model completes the burst
        }
        compute_time_ += sim_->Now() - step_started_;
        active_cpu_task_ = 0;
        break;
      }
      case Job::StepKind::kSleep: {
        VirtualDuration d = VirtualDuration::Nanos(action.amount);
        CHECK(!d.IsNegative());
        active_timer_ = sim_->ScheduleAfter(d, StepDone(this, gen));
        parked_kind_ = action.kind;
        return;  // parked until the timer fires
      }
      case Job::StepKind::kWait:
        if (!step_completed_sync_) {
          parked_kind_ = action.kind;
          return;  // parked until `done` is invoked
        }
        break;
    }
    AdvanceStep();
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
  switch (parked_kind_) {
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
  AdvanceStep();
  RunSteps();
  if (!busy_) {
    StartNextJob();
  }
}

}  // namespace scalecheck
