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
//   Sleep(d)       timer wait; zero CPU (this is what PIL substitutes for
//                  Compute)
//   Lock/Unlock    virtual mutex operations (C5456's coarse ring lock)
//   Async(fn)      escape hatch: fn receives a completion callback; used by
//                  the PIL executor to decide compute-vs-sleep at run time
//
// Compute work and sleep durations are evaluated lazily at step start, since
// they usually depend on state mutated by earlier jobs.

#ifndef SCALECHECK_SRC_SIM_THREAD_H_
#define SCALECHECK_SRC_SIM_THREAD_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/sim/cpu_model.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace scalecheck {

class SimThread;

class Job {
 public:
  // Labels are static string literals: storing the pointer keeps job
  // construction allocation-free ("gossip.handle-syn" exceeds libstdc++'s
  // 15-char SSO, which cost one heap allocation per job — millions per run).
  explicit Job(const char* label) : label_(label) {}

  Job& Run(std::function<void()> fn);
  Job& Compute(WorkUnits work);
  Job& Compute(std::function<WorkUnits()> work_fn);
  Job& Sleep(VirtualDuration d);
  Job& Sleep(std::function<VirtualDuration()> d_fn);
  Job& Lock(SimMutex* mutex);
  Job& Unlock(SimMutex* mutex);
  // fn must invoke `done` exactly once (possibly synchronously).
  Job& Async(std::function<void(std::function<void()> done)> fn);

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

  enum class StepKind { kRun, kCompute, kSleep, kLock, kUnlock, kAsync };

  struct Step {
    StepKind kind;
    std::function<void()> run;
    std::function<WorkUnits()> work;
    std::function<VirtualDuration()> duration;
    SimMutex* mutex = nullptr;
    std::function<void(std::function<void()>)> async;
  };

  const char* label_;
  std::vector<Step> steps_;
  VirtualTime intended_;
  bool has_intended_ = false;
  VirtualDuration expiry_;
  bool has_expiry_ = false;
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
  size_t queue_depth() const { return queue_.size(); }
  const std::string& name() const { return name_; }
  Machine* machine() const { return machine_; }
  Simulator* sim() const { return sim_; }

  uint64_t jobs_completed() const { return jobs_completed_; }
  // Jobs shed unstarted because they outlived their expiry in the queue.
  uint64_t jobs_dropped() const { return jobs_dropped_; }
  WorkUnits total_work() const { return total_work_; }
  // Virtual time spent inside Compute steps (includes contention stretch).
  VirtualDuration compute_time() const { return compute_time_; }
  // Virtual time spent inside Sleep steps (PIL sleeps land here).
  VirtualDuration sleep_time() const { return sleep_time_; }

 private:
  void StartNextJob();
  bool Expired(const Job& job) const;
  // Destroys the job's steps, keeping its label, intended time and expiry.
  static void ReleaseSteps(Job& job);
  // Executes steps of the current job until an async boundary or completion.
  void RunSteps();
  // Completion callback for async steps; `gen` guards against stale wakeups.
  void OnStepComplete(uint64_t gen);

  Simulator* sim_;
  Machine* machine_;
  std::string name_;

  std::deque<Job> queue_;
  // queue_[0, released_) are expired jobs whose steps are already released.
  size_t released_ = 0;
  Job current_{""};
  size_t step_index_ = 0;
  bool busy_ = false;
  bool dead_ = false;

  // Async-step bookkeeping.
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
