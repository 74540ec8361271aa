// The discrete-event simulator driving all ScaleCheck runs.
//
// The simulator owns the virtual clock, the pending-event set and the root
// deterministic RNG. Everything that happens in a run — gossip rounds, message
// deliveries, compute-burst completions, lock grants — is an event. Time never
// moves backwards, and two runs with the same configuration and seed produce
// byte-identical traces.

#ifndef SCALECHECK_SRC_SIM_SIMULATOR_H_
#define SCALECHECK_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <string>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/sim/event_queue.h"
#include "src/transport/substrate.h"

namespace scalecheck {

// The simulator is also the simulated carrier's Clock: protocol code and
// PeriodicClockTimer schedule on it directly, an EventId serving as the
// TimerId. The class is final, so calls through a Simulator* bind statically.
class Simulator final : public Clock {
 public:
  explicit Simulator(uint64_t seed);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  VirtualTime Now() const override { return now_; }

  // Schedules fn at absolute virtual time t (>= Now()). Accepts any callable
  // (EventFn is move-only and small-buffer-optimized, so hot-path lambdas are
  // stored without a heap allocation).
  EventId ScheduleAt(VirtualTime t, EventFn fn);

  // Schedules fn after a non-negative delay.
  EventId ScheduleAfter(VirtualDuration d, EventFn fn) override;

  // Cancels a pending event; returns false if it already fired.
  bool Cancel(EventId id) { return queue_.Cancel(id); }
  bool CancelTimer(TimerId id) override { return Cancel(id); }

  // Runs until the queue drains or the clock passes `until`, whichever comes
  // first. Events scheduled exactly at `until` still run. Returns the number
  // of events executed.
  uint64_t Run(VirtualTime until = VirtualTime::Max());

  // Runs until the queue is empty.
  uint64_t RunUntilIdle() { return Run(VirtualTime::Max()); }

  // Requests that Run() return after the current event completes. Sticky
  // until a Run consumes it: raised outside Run (jobs execute synchronously
  // from SimThread::Enqueue on an idle thread), it cancels the next Run
  // instead of being dropped.
  void RequestStop() { stop_requested_ = true; }

  // Host wall-clock watchdog: when set (> 0), Run() periodically checks the
  // host clock and bails out once the budget is exhausted, setting
  // wall_budget_exceeded(). The self-healing suite executor uses this to
  // bound runaway cells. 0 disables. The check is amortized (every 512
  // events) so the hot loop stays clock-free when no budget is set.
  void SetWallBudget(double seconds) { wall_budget_seconds_ = seconds; }
  bool wall_budget_exceeded() const { return wall_budget_exceeded_; }

  // Root RNG; components should Fork() child generators at setup time so that
  // their streams are independent of event interleaving.
  Rng& rng() { return rng_; }

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return queue_.size(); }
  uint64_t events_cancelled() const { return queue_.total_cancelled(); }
  // Pooled event-slot slab high-water mark (see EventQueue::slot_high_water).
  size_t event_slot_high_water() const { return queue_.slot_high_water(); }

 private:
  VirtualTime now_;
  EventQueue queue_;
  Rng rng_;
  bool stop_requested_ = false;
  bool running_ = false;
  uint64_t events_executed_ = 0;
  double wall_budget_seconds_ = 0.0;
  bool wall_budget_exceeded_ = false;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SIM_SIMULATOR_H_
