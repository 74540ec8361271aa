// Fluid processor-sharing CPU model.
//
// Each simulated machine has C cores running at `speed` work-units/second.
// Compute bursts (one per busy thread) are serviced processor-sharing style:
// with A active bursts, each receives
//
//     rate(A) = speed * min(1, C/A) / (1 + p * max(0, (A - C) / C))
//
// where p is the context-switch penalty. When A <= C every burst owns a core
// (this is the "real-scale" regime: nodes on dedicated machines never
// contend). When A > C, bursts share cores *and* pay a context-switching
// degradation that grows with over-subscription — this is what makes basic
// colocation both slow and increasingly inefficient (§6 of the paper), and
// what PIL avoids by replacing computation with zero-CPU sleeps.
//
// Implementation: because all bursts share one rate, we track a global
// "service clock" S with dS/dt = rate(A). A burst that starts when the clock
// is S0 with w work units completes when S reaches S0 + w. Bursts live in a
// slot vector (freed slots are reused) and an indexed binary min-heap orders
// them by (target service, task id) — ids grow with start order, so equal
// targets complete in start order — making every state change O(log A) and
// allocation-free once the vectors have grown to the peak burst count.

#ifndef SCALECHECK_SRC_SIM_CPU_MODEL_H_
#define SCALECHECK_SRC_SIM_CPU_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/common/event_fn.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace scalecheck {

class CpuModel {
 public:
  struct Config {
    double cores = 16.0;
    // Work units per second per core. 1e9 means one unit ~ 1 ns of compute.
    double speed = 1e9;
    // Context-switch penalty once over-subscribed; 0 disables.
    double ctx_switch_penalty = 0.03;
  };

  // A task id packs the burst's slot into its low kSlotBits under the
  // burst's start sequence number (1, 2, ...), so CancelTask finds the slot
  // without a map and a stale id is told apart from the slot's new burst.
  // Ids are never 0.
  using TaskId = uint64_t;
  static constexpr int kSlotBits = 24;

  CpuModel(Simulator* sim, const Config& config);
  ~CpuModel();
  CpuModel(const CpuModel&) = delete;
  CpuModel& operator=(const CpuModel&) = delete;

  // Starts a compute burst of `work` units; `on_complete` fires when the
  // burst finishes. Zero-work bursts complete on the next event dispatch.
  TaskId StartTask(WorkUnits work, EventFn on_complete);

  // Cancels an in-flight burst (node crash injection). Returns false if the
  // burst already completed.
  bool CancelTask(TaskId id);

  // Slow-node fault injection: scales the effective core speed by `factor`
  // (1.0 = nominal, 0.5 = half speed). Takes effect immediately for every
  // in-flight burst — the service clock is settled at the old rate first, so
  // work already delivered is not re-priced.
  void SetSpeedFactor(double factor);
  double speed_factor() const { return speed_factor_; }

  int active_count() const { return static_cast<int>(heap_.size()); }
  int peak_active() const { return peak_active_; }

  // Total core-seconds of *occupancy* so far: min(active, cores) integrated
  // over time. Equals the useful work delivered when the context-switch
  // penalty is zero; exceeds it when oversubscribed (cores burn occupancy
  // switching).
  double busy_core_seconds() const;

  // Utilization over [0, now]: busy core-time / (cores * elapsed).
  double Utilization() const;

  // Instantaneous stretch factor: how much longer a burst takes now compared
  // to a dedicated core (1.0 when uncontended).
  double CurrentStretch() const;

  const Config& config() const { return config_; }
  uint64_t tasks_started() const { return next_seq_ - 1; }

 private:
  struct Task {
    double target_service = 0.0;  // service clock value at completion
    TaskId id = 0;                // 0 while the slot is free
    uint32_t heap_pos = 0;        // index of this slot in heap_
    EventFn on_complete;
  };

  // Heap order: earlier target first, then earlier start.
  bool Before(uint32_t a, uint32_t b) const {
    const Task& x = tasks_[a];
    const Task& y = tasks_[b];
    return x.target_service < y.target_service ||
           (x.target_service == y.target_service && x.id < y.id);
  }
  void SiftUp(uint32_t pos);
  void SiftDown(uint32_t pos);
  // Removes heap_[pos] and frees its slot (the callback must be moved out or
  // reset by the caller first).
  void RemoveAt(uint32_t pos);

  // Advances the service clock to Now().
  void Settle();
  // Per-task service rate given the current active count.
  double RatePerTask(int active) const;
  // Re-arms the completion event for the earliest target.
  void Reschedule();
  // Fires due completions.
  void OnCompletionEvent();

  Simulator* sim_;
  Config config_;
  double speed_factor_ = 1.0;  // slow-node degradation multiplier

  double service_ = 0.0;           // work units delivered per task so far
  VirtualTime last_settle_;        // last time service_ was updated
  double busy_core_work_ = 0.0;    // integral of min(A, C) * speed over time

  std::vector<Task> tasks_;          // slots, indexed by the id's low bits
  std::vector<uint32_t> free_slots_;
  std::vector<uint32_t> heap_;       // slots of active bursts, min-heap
  std::vector<EventFn> done_;        // reused completion buffer

  EventId pending_event_ = kInvalidEvent;
  uint64_t next_seq_ = 1;
  int peak_active_ = 0;
  bool in_completion_ = false;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SIM_CPU_MODEL_H_
