// Wall-clock half of the real carrier: Clock implemented over
// std::chrono::steady_clock plus a dedicated timer thread.
//
// VirtualTime in real mode is "nanoseconds since this RealClock was
// constructed" — the protocol code only ever subtracts instants and adds
// durations, so rebasing to a per-run epoch keeps the int64 range and makes
// logs/JSON line up with the simulator's from-zero timelines.
//
// Timer callbacks run on the clock's single timer thread, in deadline order.
// Protocol state machines (Gossiper, TokenRing, KvService) are written
// single-threaded; RealNode gives each node one mutex and wraps its Clock in
// SerializedClock so every timer callback — like every socket delivery —
// enters the node's monitor first. That is the real-mode analogue of the
// simulator's one-event-at-a-time guarantee.

#ifndef SCALECHECK_SRC_NET_REAL_CLOCK_H_
#define SCALECHECK_SRC_NET_REAL_CLOCK_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "src/transport/substrate.h"

namespace scalecheck {

class RealClock final : public Clock {
 public:
  RealClock();
  ~RealClock() override;
  RealClock(const RealClock&) = delete;
  RealClock& operator=(const RealClock&) = delete;

  VirtualTime Now() const override;
  TimerId ScheduleAfter(VirtualDuration delay, EventFn fn) override;
  // Best-effort: returns false if the timer already fired or is firing.
  bool CancelTimer(TimerId id) override;

  // Stops the timer thread; pending timers never fire. Called by the
  // destructor; safe to call early (RealCluster stops clocks before tearing
  // down the nodes the callbacks point into).
  void Shutdown();

 private:
  struct Pending {
    std::chrono::steady_clock::time_point deadline;
    EventFn fn;
  };

  void TimerLoop();

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Ordered by id; the loop scans for the earliest deadline. Timer counts
  // here are tiny (a handful per node), so a scan beats heap bookkeeping.
  std::map<TimerId, Pending> pending_;
  TimerId next_id_ = 1;
  bool shutdown_ = false;
  std::thread timer_thread_;
};

// Decorator that routes every timer callback through a node's mutex. Now()
// and cancellation pass through; ScheduleAfter wraps the callback so it
// locks `mu` before touching node state.
class SerializedClock final : public Clock {
 public:
  SerializedClock(Clock* base, std::mutex* mu) : base_(base), mu_(mu) {}

  VirtualTime Now() const override { return base_->Now(); }
  TimerId ScheduleAfter(VirtualDuration delay, EventFn fn) override {
    return base_->ScheduleAfter(
        delay, [mu = mu_, fn = std::move(fn)]() mutable {
          std::lock_guard<std::mutex> lock(*mu);
          fn();
        });
  }
  bool CancelTimer(TimerId id) override { return base_->CancelTimer(id); }

 private:
  Clock* base_;
  std::mutex* mu_;
};

// Real-mode Stage: storage work is real work — just do it, then deliver the
// completion. Caller already holds the node's mutex (Submit happens inside
// message handling), so op/done run under the same serialization as in the
// simulator, where stage jobs of one node never interleave.
class RealStage final : public Stage {
 public:
  void Submit(const char* label, OpFn op, DoneFn done) override {
    (void)label;
    op();
    done();
  }
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_NET_REAL_CLOCK_H_
