// Simulated threads and jobs.
//
// Node logic is expressed as Jobs: short sequences of steps executed in order
// on a SimThread. A SimThread runs one job at a time from a FIFO queue —
// exactly like a single-threaded stage in a SEDA-style server. Step kinds:
//
//   Run(fn)        synchronous action, zero virtual time (state mutation,
//                  message sends)
//   Compute(w)     a CPU burst of w work units charged to the thread's
//                  machine; the thread is busy until the CPU model completes
//                  the burst (this is where colocation contention bites)
//   Sleep(d)       timer wait; zero CPU
//   Lock/Unlock    virtual mutex operations (C5456's coarse ring lock)
//   Async(fn)      escape hatch: fn receives a completion callback; used by
//                  the PIL executor to decide compute-vs-sleep at run time
//                  (a PIL replay waits out the recorded duration here, as a
//                  simulator event, not in a Sleep step)
//
// Compute work and sleep durations are evaluated lazily at step start, since
// they usually depend on state mutated by earlier jobs.
//
// The job path allocates nothing in steady state (DESIGN.md §3b). Each step
// is one move-only small-buffer callable (Job::Step, SmallFn from
// src/common/event_fn.h) that performs the step's action and tells the
// thread what to wait for; captures up to Job::Step::kInlineBytes stay
// inline. Steps live in fixed-size blocks of Job::kStepsPerBlock, chained
// when a job has more, and recycled through a per-host-thread free list that
// only ever holds blocks that were once live at the same time. A queued job
// is a label, two block pointers and its timing; a finished job, and a queued
// one that is already past its expiry, gives its blocks back at once, so a
// shed tombstone pins no closure and no payload.

#ifndef SCALECHECK_SRC_SIM_THREAD_H_
#define SCALECHECK_SRC_SIM_THREAD_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/event_fn.h"
#include "src/common/types.h"
#include "src/sim/cpu_model.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace scalecheck {

class SimThread;

// The completion handle an Async (or Lock) step receives: invoking it once
// resumes the job. Copyable and two words, so it converts to a
// std::function<void()> without allocating.
class StepDone {
 public:
  void operator()() const;

 private:
  friend class SimThread;
  StepDone(SimThread* thread, uint64_t gen) : thread_(thread), gen_(gen) {}

  SimThread* thread_;
  uint64_t gen_;
};

class Job {
 public:
  // What a step asks of its thread once its action has run.
  enum class StepKind : uint8_t {
    kRun,      // nothing: go on to the next step
    kCompute,  // a CPU burst of `amount` work units
    kSleep,    // a timer wait of `amount` nanoseconds
    kWait,     // park until the StepDone handle is invoked
  };
  struct StepAction {
    StepKind kind;
    int64_t amount;
  };
  using Step = SmallFn<StepAction(const StepDone&), 40>;
  // Sized for the five-step gossip ACK/ACK2 job (Compute, Lock, Run, Unlock,
  // Run); longer jobs chain a second block.
  static constexpr uint32_t kStepsPerBlock = 5;
  // kStepsPerBlock steps and a link; defined in thread.cc.
  struct StepBlock;

  // Labels are static string literals: storing the pointer keeps job
  // construction allocation-free ("gossip.handle-syn" exceeds libstdc++'s
  // 15-char SSO, which cost one heap allocation per job — millions per run).
  explicit Job(const char* label) : label_(label) {}
  Job(Job&& other) noexcept { *this = std::move(other); }
  Job& operator=(Job&& other) noexcept;
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;
  ~Job() { ReleaseSteps(); }

  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&>
  Job& Run(F&& fn) {
    return Append([f = std::forward<F>(fn)](const StepDone&) mutable {
      f();
      return StepAction{StepKind::kRun, 0};
    });
  }
  Job& Compute(WorkUnits work) {
    return Compute([work] { return work; });
  }
  template <typename F>
    requires std::is_invocable_r_v<WorkUnits, std::decay_t<F>&>
  Job& Compute(F&& work_fn) {
    return Append([f = std::forward<F>(work_fn)](const StepDone&) mutable {
      return StepAction{StepKind::kCompute, static_cast<int64_t>(f())};
    });
  }
  Job& Sleep(VirtualDuration d) {
    return Sleep([d] { return d; });
  }
  template <typename F>
    requires std::is_invocable_r_v<VirtualDuration, std::decay_t<F>&>
  Job& Sleep(F&& d_fn) {
    return Append([f = std::forward<F>(d_fn)](const StepDone&) mutable {
      return StepAction{StepKind::kSleep, VirtualDuration(f()).nanos()};
    });
  }
  Job& Lock(SimMutex* mutex);
  Job& Unlock(SimMutex* mutex);
  // fn receives a `done` handle (a StepDone, which converts to
  // std::function<void()>) and must invoke it exactly once, possibly
  // synchronously.
  template <typename F>
    requires std::is_invocable_v<std::decay_t<F>&, const StepDone&>
  Job& Async(F&& fn) {
    return Append([f = std::forward<F>(fn)](const StepDone& done) mutable {
      f(done);
      return StepAction{StepKind::kWait, 0};
    });
  }

  // Intended start instant, for lateness accounting. Defaults to the enqueue
  // time.
  Job& IntendedAt(VirtualTime t) {
    intended_ = t;
    has_intended_ = true;
    return *this;
  }

  // Drops the job unstarted if it has waited in the queue longer than `d`
  // past its intended time — Cassandra's stage behaviour of shedding gossip
  // tasks older than the RPC timeout, which is what turns a saturated stage
  // into total heartbeat silence during a flap storm.
  Job& ExpiresAfter(VirtualDuration d) {
    expiry_ = d;
    has_expiry_ = true;
    return *this;
  }

  const char* label() const { return label_; }

 private:
  friend class SimThread;

  template <typename F>
  Job& Append(F&& step) {
    NextStep() = Step(std::forward<F>(step));
    return *this;
  }
  // Claims the next step slot, taking a block from the free list when the
  // tail block is full.
  Step& NextStep();
  // Destroys the steps and returns their blocks to the free list, keeping
  // the label, intended time and expiry.
  void ReleaseSteps();

  const char* label_ = "";
  StepBlock* head_ = nullptr;
  StepBlock* tail_ = nullptr;
  uint32_t size_ = 0;
  bool has_intended_ = false;
  bool has_expiry_ = false;
  VirtualTime intended_;
  VirtualDuration expiry_;
};

class SimThread {
 public:
  SimThread(Simulator* sim, Machine* machine, std::string name);
  ~SimThread();
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  // Appends a job; starts it immediately (same event) if the thread is idle.
  void Enqueue(Job job);

  // Aborts the current job and drops the queue; the thread stops accepting
  // work. In-flight CPU bursts and timers are cancelled. Held locks are NOT
  // released — a killed node takes its locks to the grave, as a crashed
  // process would (its mutexes are node-local and die with it; the owner
  // must SimMutex::ResetForCrash() them before the lock is reusable).
  void Kill();

  // Restart support: a killed thread comes back empty and idle. Only valid
  // after Kill() (the queue is already drained and the step generation was
  // bumped, so no pre-crash wakeup can reach the revived thread).
  void Revive();

  bool idle() const { return !busy_; }
  bool dead() const { return dead_; }
  size_t queue_depth() const { return queue_.size() - queue_head_; }
  const std::string& name() const { return name_; }
  Machine* machine() const { return machine_; }
  Simulator* sim() const { return sim_; }

  uint64_t jobs_completed() const { return jobs_completed_; }
  // Jobs shed unstarted because they outlived their expiry in the queue.
  uint64_t jobs_dropped() const { return jobs_dropped_; }
  WorkUnits total_work() const { return total_work_; }
  // Virtual time spent inside Compute steps (includes contention stretch).
  VirtualDuration compute_time() const { return compute_time_; }
  // Virtual time spent inside Sleep steps. PIL replay waits in an Async
  // step, so it does not land here.
  VirtualDuration sleep_time() const { return sleep_time_; }

 private:
  friend class StepDone;

  void StartNextJob();
  bool Expired(const Job& job) const;
  void PopFront();
  // Moves the step cursor past the current step.
  void AdvanceStep();
  // Executes steps of the current job until an async boundary or completion.
  void RunSteps();
  // Completion callback for parked steps; `gen` guards against stale wakeups.
  void OnStepComplete(uint64_t gen);

  Simulator* sim_;
  Machine* machine_;
  std::string name_;

  // The FIFO: queue_[queue_head_, size) are the queued jobs. Popping moves
  // the head; the popped prefix is erased once it is half the vector, or
  // cleared when the queue drains, so the vector keeps its capacity and a
  // busy stage enqueues without allocating (a std::deque frees and
  // allocates a chunk every ten jobs).
  std::vector<Job> queue_;
  size_t queue_head_ = 0;
  // The first released_ queued jobs are expired, their steps released.
  size_t released_ = 0;
  Job current_{""};
  // Cursor: the current step is step_block_'s slot step_slot_, the
  // step_index_-th of current_.
  Job::StepBlock* step_block_ = nullptr;
  uint32_t step_slot_ = 0;
  uint32_t step_index_ = 0;
  bool busy_ = false;
  bool dead_ = false;

  // Parked-step bookkeeping.
  Job::StepKind parked_kind_ = Job::StepKind::kRun;
  uint64_t step_gen_ = 0;
  bool in_step_start_ = false;
  bool step_completed_sync_ = false;
  CpuModel::TaskId active_cpu_task_ = 0;
  EventId active_timer_ = kInvalidEvent;
  VirtualTime step_started_;

  uint64_t jobs_completed_ = 0;
  uint64_t jobs_dropped_ = 0;
  WorkUnits total_work_ = 0;
  VirtualDuration compute_time_;
  VirtualDuration sleep_time_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SIM_THREAD_H_
