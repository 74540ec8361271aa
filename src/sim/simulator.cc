#include "src/sim/simulator.h"

#include <chrono>
#include <utility>

#include "src/common/check.h"

namespace scalecheck {

Simulator::Simulator(uint64_t seed) : now_(VirtualTime::Zero()), rng_(seed) {}

EventId Simulator::ScheduleAt(VirtualTime t, EventFn fn) {
  CHECK_GE(t, now_) << "scheduling into the past";
  return queue_.Schedule(t, std::move(fn));
}

EventId Simulator::ScheduleAfter(VirtualDuration d, EventFn fn) {
  CHECK(!d.IsNegative()) << "negative delay" << d.ToString();
  return queue_.Schedule(now_ + d, std::move(fn));
}

uint64_t Simulator::Run(VirtualTime until) {
  CHECK(!running_) << "reentrant Run()";
  running_ = true;
  wall_budget_exceeded_ = false;
  const bool watched = wall_budget_seconds_ > 0.0;
  const auto wall_start = watched ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  uint64_t executed = 0;
  while (!queue_.empty() && !stop_requested_) {
    if (watched && (executed & 511u) == 511u) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      if (elapsed > wall_budget_seconds_) {
        wall_budget_exceeded_ = true;
        break;
      }
    }
    VirtualTime next = queue_.NextTime();
    if (next > until) {
      break;
    }
    VirtualTime t;
    EventFn fn = queue_.Pop(&t);
    CHECK_GE(t, now_) << "time went backwards";
    now_ = t;
    fn();
    ++executed;
    ++events_executed_;
  }
  // If we stopped because the horizon was reached, advance the clock to the
  // horizon so callers observe a full window.
  if ((queue_.empty() || queue_.NextTime() > until) && until != VirtualTime::Max() &&
      now_ < until) {
    now_ = until;
  }
  // A stop request cancels exactly one Run. Clearing it on exit (not entry)
  // makes a stop raised OUTSIDE Run — e.g. a strict replay divergence hit in
  // a job that a SimThread started synchronously from Enqueue before the main
  // loop began — cancel the next Run instead of being silently dropped.
  stop_requested_ = false;
  running_ = false;
  return executed;
}

}  // namespace scalecheck
