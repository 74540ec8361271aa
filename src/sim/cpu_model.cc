#include "src/sim/cpu_model.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace scalecheck {

CpuModel::CpuModel(Simulator* sim, const Config& config)
    : sim_(sim), config_(config), last_settle_(sim->Now()) {
  CHECK_NOTNULL(sim);
  CHECK_GT(config.cores, 0.0);
  CHECK_GT(config.speed, 0.0);
  CHECK_GE(config.ctx_switch_penalty, 0.0);
}

CpuModel::~CpuModel() {
  if (pending_event_ != kInvalidEvent) {
    sim_->Cancel(pending_event_);
  }
}

double CpuModel::RatePerTask(int active) const {
  if (active <= 0) {
    return 0.0;
  }
  double a = static_cast<double>(active);
  double share = std::min(1.0, config_.cores / a);
  double oversub = std::max(0.0, (a - config_.cores) / config_.cores);
  return config_.speed * speed_factor_ * share /
         (1.0 + config_.ctx_switch_penalty * oversub);
}

void CpuModel::SetSpeedFactor(double factor) {
  CHECK_GT(factor, 0.0);
  if (factor == speed_factor_) {
    return;
  }
  Settle();  // deliver work at the old rate up to now
  speed_factor_ = factor;
  Reschedule();
}

void CpuModel::Settle() {
  VirtualTime now = sim_->Now();
  CHECK_GE(now, last_settle_);
  double dt = (now - last_settle_).seconds();
  if (dt > 0.0 && !heap_.empty()) {
    int active = active_count();
    service_ += dt * RatePerTask(active);
    busy_core_work_ +=
        dt * std::min(static_cast<double>(active), config_.cores) * config_.speed;
  }
  last_settle_ = now;
}

double CpuModel::busy_core_seconds() const { return busy_core_work_ / config_.speed; }

double CpuModel::Utilization() const {
  double elapsed = sim_->Now().seconds();
  if (elapsed <= 0.0) {
    return 0.0;
  }
  // Note: busy_core_work_ only counts time already settled; an in-progress
  // quiet period contributes zero anyway, and in-progress busy periods are
  // settled on every state change, so the error is bounded by the current
  // inter-event gap.
  return busy_core_work_ / (config_.speed * config_.cores * elapsed);
}

double CpuModel::CurrentStretch() const {
  int active = active_count();
  if (active == 0) {
    return 1.0;
  }
  return config_.speed / RatePerTask(active);
}

CpuModel::TaskId CpuModel::StartTask(WorkUnits work, EventFn on_complete) {
  CHECK_GE(work, 0);
  Settle();
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(tasks_.size());
    CHECK_LT(slot, uint32_t{1} << kSlotBits) << "too many concurrent bursts";
    tasks_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  TaskId id = (next_seq_++ << kSlotBits) | slot;
  Task& task = tasks_[slot];
  task.target_service = service_ + static_cast<double>(work);
  task.id = id;
  task.heap_pos = static_cast<uint32_t>(heap_.size());
  task.on_complete = std::move(on_complete);
  heap_.push_back(slot);
  SiftUp(task.heap_pos);
  peak_active_ = std::max(peak_active_, active_count());
  Reschedule();
  return id;
}

bool CpuModel::CancelTask(TaskId id) {
  uint64_t slot = id & ((uint64_t{1} << kSlotBits) - 1);
  if (slot >= tasks_.size() || tasks_[slot].id != id) {
    return false;
  }
  Settle();
  tasks_[slot].on_complete.Reset();
  RemoveAt(tasks_[slot].heap_pos);
  Reschedule();
  return true;
}

void CpuModel::SiftUp(uint32_t pos) {
  uint32_t slot = heap_[pos];
  while (pos > 0) {
    uint32_t parent = (pos - 1) / 2;
    if (!Before(slot, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    tasks_[heap_[pos]].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = slot;
  tasks_[slot].heap_pos = pos;
}

void CpuModel::SiftDown(uint32_t pos) {
  uint32_t slot = heap_[pos];
  uint32_t n = static_cast<uint32_t>(heap_.size());
  while (true) {
    uint32_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], slot)) {
      break;
    }
    heap_[pos] = heap_[child];
    tasks_[heap_[pos]].heap_pos = pos;
    pos = child;
  }
  heap_[pos] = slot;
  tasks_[slot].heap_pos = pos;
}

void CpuModel::RemoveAt(uint32_t pos) {
  uint32_t slot = heap_[pos];
  uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    heap_[pos] = last;
    tasks_[last].heap_pos = pos;
    if (pos > 0 && Before(last, heap_[(pos - 1) / 2])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }
  tasks_[slot].id = 0;
  free_slots_.push_back(slot);
}

void CpuModel::Reschedule() {
  if (pending_event_ != kInvalidEvent) {
    sim_->Cancel(pending_event_);
    pending_event_ = kInvalidEvent;
  }
  if (heap_.empty()) {
    return;
  }
  double min_target = tasks_[heap_[0]].target_service;
  double rate = RatePerTask(active_count());
  CHECK_GT(rate, 0.0);
  double remaining = std::max(0.0, min_target - service_);
  double dt_seconds = remaining / rate;
  VirtualDuration dt = VirtualDuration::FromSecondsF(dt_seconds);
  // Floating-point drift can leave `remaining` just above the completion
  // epsilon while dt rounds down to zero nanoseconds — which would spin the
  // event loop forever at the same instant. One nanosecond of service always
  // makes progress.
  if (dt.nanos() < 1) {
    dt = VirtualDuration::Nanos(1);
  }
  pending_event_ = sim_->ScheduleAfter(dt, [this] { OnCompletionEvent(); });
}

void CpuModel::OnCompletionEvent() {
  CHECK(!in_completion_);
  pending_event_ = kInvalidEvent;
  Settle();
  // Absolute + relative tolerance for floating-point drift between the
  // scheduled completion instant and the settled service clock.
  double eps = 1e-6 + 1e-9 * service_;
  while (!heap_.empty() && tasks_[heap_[0]].target_service <= service_ + eps) {
    done_.push_back(std::move(tasks_[heap_[0]].on_complete));
    RemoveAt(0);
  }
  if (done_.empty()) {
    // Fired fractionally early due to rounding; re-arm.
    Reschedule();
    return;
  }
  Reschedule();
  in_completion_ = true;
  for (EventFn& fn : done_) {
    if (fn) {
      fn();
    }
  }
  done_.clear();
  in_completion_ = false;
}

}  // namespace scalecheck
