#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/cpu_model.h"

namespace scalecheck {
namespace {

CpuModel::Config OneCore() {
  CpuModel::Config cfg;
  cfg.cores = 1.0;
  cfg.speed = 1e9;
  cfg.ctx_switch_penalty = 0.0;
  return cfg;
}

TEST(CpuModelTest, SingleTaskTakesWorkOverSpeed) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  bool done = false;
  cpu.StartTask(2'000'000'000, [&] { done = true; });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.Now().seconds(), 2.0, 1e-6);
}

TEST(CpuModelTest, ProcessorSharingDoublesDuration) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  std::vector<double> finish;
  cpu.StartTask(1'000'000'000, [&] { finish.push_back(sim.Now().seconds()); });
  cpu.StartTask(1'000'000'000, [&] { finish.push_back(sim.Now().seconds()); });
  sim.RunUntilIdle();
  ASSERT_EQ(finish.size(), 2u);
  // Two equal 1s tasks sharing one core both finish at ~2s.
  EXPECT_NEAR(finish[0], 2.0, 1e-6);
  EXPECT_NEAR(finish[1], 2.0, 1e-6);
}

TEST(CpuModelTest, UnequalTasksFinishInWorkOrder) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  std::vector<std::pair<int, double>> finish;
  cpu.StartTask(500'000'000, [&] { finish.emplace_back(1, sim.Now().seconds()); });
  cpu.StartTask(1'000'000'000, [&] { finish.emplace_back(2, sim.Now().seconds()); });
  sim.RunUntilIdle();
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_EQ(finish[0].first, 1);
  // Short task: shares until it has 0.5e9 service => finishes at 1.0s.
  EXPECT_NEAR(finish[0].second, 1.0, 1e-6);
  // Long task: 0.5e9 served at t=1, remaining 0.5e9 alone => 1.5s.
  EXPECT_NEAR(finish[1].second, 1.5, 1e-6);
}

TEST(CpuModelTest, MultipleCoresRunInParallel) {
  Simulator sim(1);
  CpuModel::Config cfg = OneCore();
  cfg.cores = 4.0;
  CpuModel cpu(&sim, cfg);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    cpu.StartTask(1'000'000'000, [&] { ++done; });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(done, 4);
  EXPECT_NEAR(sim.Now().seconds(), 1.0, 1e-6);  // no contention
}

TEST(CpuModelTest, ContextSwitchPenaltySlowsOversubscription) {
  Simulator sim(1);
  CpuModel::Config cfg = OneCore();
  cfg.ctx_switch_penalty = 0.5;
  CpuModel cpu(&sim, cfg);
  // 3 tasks on 1 core: oversubscription (3-1)/1 = 2, divisor 1 + 0.5*2 = 2.
  for (int i = 0; i < 3; ++i) {
    cpu.StartTask(1'000'000'000, [] {});
  }
  sim.RunUntilIdle();
  // Without penalty: 3s. With divisor 2: 6s.
  EXPECT_NEAR(sim.Now().seconds(), 6.0, 1e-5);
}

TEST(CpuModelTest, CurrentStretchReflectsLoad) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  EXPECT_DOUBLE_EQ(cpu.CurrentStretch(), 1.0);
  cpu.StartTask(1'000'000'000, [] {});
  EXPECT_DOUBLE_EQ(cpu.CurrentStretch(), 1.0);
  cpu.StartTask(1'000'000'000, [] {});
  EXPECT_DOUBLE_EQ(cpu.CurrentStretch(), 2.0);
  sim.RunUntilIdle();
}

TEST(CpuModelTest, CancelPreventsCompletion) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  bool done = false;
  CpuModel::TaskId id = cpu.StartTask(1'000'000'000, [&] { done = true; });
  EXPECT_TRUE(cpu.CancelTask(id));
  EXPECT_FALSE(cpu.CancelTask(id));
  sim.RunUntilIdle();
  EXPECT_FALSE(done);
  EXPECT_EQ(cpu.active_count(), 0);
}

TEST(CpuModelTest, CancelSpeedsUpRemainingTask) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  double finish = 0;
  cpu.StartTask(1'000'000'000, [&] { finish = sim.Now().seconds(); });
  CpuModel::TaskId hog = cpu.StartTask(10'000'000'000, [] {});
  sim.ScheduleAfter(VirtualDuration::Seconds(1), [&] { cpu.CancelTask(hog); });
  sim.RunUntilIdle();
  // Shares for 1s (0.5e9 done), then alone for 0.5s => 1.5s.
  EXPECT_NEAR(finish, 1.5, 1e-5);
}

TEST(CpuModelTest, ZeroWorkCompletesImmediately) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  bool done = false;
  cpu.StartTask(0, [&] { done = true; });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_LE(sim.Now().seconds(), 1e-6);
}

TEST(CpuModelTest, UtilizationAccountsBusyTime) {
  Simulator sim(1);
  CpuModel::Config cfg = OneCore();
  cfg.cores = 2.0;
  CpuModel cpu(&sim, cfg);
  cpu.StartTask(1'000'000'000, [] {});  // 1s on one of two cores
  sim.RunUntilIdle();
  sim.ScheduleAfter(VirtualDuration::Seconds(1), [] {});  // idle second
  sim.RunUntilIdle();
  // 1 core-second busy over 2 cores * 2 seconds = 25%.
  EXPECT_NEAR(cpu.Utilization(), 0.25, 1e-6);
}

TEST(CpuModelTest, ConservationOfWork) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  const WorkUnits kTotal = 3'700'000'000;
  int done = 0;
  cpu.StartTask(kTotal / 4, [&] { ++done; });
  cpu.StartTask(kTotal / 4, [&] { ++done; });
  cpu.StartTask(kTotal / 2, [&] { ++done; });
  sim.RunUntilIdle();
  EXPECT_EQ(done, 3);
  // One core, no penalty: total duration == total work / speed.
  EXPECT_NEAR(sim.Now().seconds(), static_cast<double>(kTotal) / 1e9, 1e-5);
  EXPECT_NEAR(cpu.busy_core_seconds(), static_cast<double>(kTotal) / 1e9, 1e-5);
}

// Regression: tiny residual work must never spin the event loop at a fixed
// instant (found via a hang in the sfind profiling runs).
TEST(CpuModelTest, TinyWorkValuesMakeProgress) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  int done = 0;
  for (int i = 0; i < 1000; ++i) {
    cpu.StartTask(i % 3, [&] { ++done; });
  }
  uint64_t executed = sim.Run(VirtualTime::Zero() + VirtualDuration::Seconds(1));
  EXPECT_EQ(done, 1000);
  EXPECT_LT(executed, 100000u);  // no spin
}

TEST(CpuModelTest, PeakActiveTracksHighWaterMark) {
  Simulator sim(1);
  CpuModel cpu(&sim, OneCore());
  for (int i = 0; i < 5; ++i) {
    cpu.StartTask(1000, [] {});
  }
  sim.RunUntilIdle();
  EXPECT_EQ(cpu.peak_active(), 5);
  EXPECT_EQ(cpu.tasks_started(), 5u);
}

// ---- Differential test against the multimap model ---------------------------

// The CpuModel this tree used before bursts moved to a slot vector and an
// indexed heap: tasks in an unordered_map, completions in a multimap keyed by
// target service (equal targets in insertion order). Kept as the reference
// the rewrite must match event for event.
class ReferenceCpuModel {
 public:
  using TaskId = uint64_t;

  ReferenceCpuModel(Simulator* sim, const CpuModel::Config& config)
      : sim_(sim), config_(config), last_settle_(sim->Now()) {}
  ~ReferenceCpuModel() {
    if (pending_event_ != kInvalidEvent) {
      sim_->Cancel(pending_event_);
    }
  }

  TaskId StartTask(WorkUnits work, std::function<void()> on_complete) {
    Settle();
    TaskId id = next_id_++;
    double target = service_ + static_cast<double>(work);
    tasks_.emplace(id, Task{target, std::move(on_complete)});
    by_target_.emplace(target, id);
    Reschedule();
    return id;
  }

  bool CancelTask(TaskId id) {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) {
      return false;
    }
    Settle();
    auto range = by_target_.equal_range(it->second.target_service);
    for (auto t = range.first; t != range.second; ++t) {
      if (t->second == id) {
        by_target_.erase(t);
        break;
      }
    }
    tasks_.erase(it);
    Reschedule();
    return true;
  }

  void SetSpeedFactor(double factor) {
    if (factor == speed_factor_) {
      return;
    }
    Settle();
    speed_factor_ = factor;
    Reschedule();
  }

  double busy_core_seconds() const { return busy_core_work_ / config_.speed; }

 private:
  struct Task {
    double target_service = 0.0;
    std::function<void()> on_complete;
  };

  double RatePerTask(int active) const {
    if (active <= 0) {
      return 0.0;
    }
    double a = static_cast<double>(active);
    double share = std::min(1.0, config_.cores / a);
    double oversub = std::max(0.0, (a - config_.cores) / config_.cores);
    return config_.speed * speed_factor_ * share /
           (1.0 + config_.ctx_switch_penalty * oversub);
  }

  void Settle() {
    VirtualTime now = sim_->Now();
    double dt = (now - last_settle_).seconds();
    if (dt > 0.0 && !tasks_.empty()) {
      int active = static_cast<int>(tasks_.size());
      service_ += dt * RatePerTask(active);
      busy_core_work_ +=
          dt * std::min(static_cast<double>(active), config_.cores) * config_.speed;
    }
    last_settle_ = now;
  }

  void Reschedule() {
    if (pending_event_ != kInvalidEvent) {
      sim_->Cancel(pending_event_);
      pending_event_ = kInvalidEvent;
    }
    if (tasks_.empty()) {
      return;
    }
    double min_target = by_target_.begin()->first;
    double rate = RatePerTask(static_cast<int>(tasks_.size()));
    double remaining = std::max(0.0, min_target - service_);
    VirtualDuration dt = VirtualDuration::FromSecondsF(remaining / rate);
    if (dt.nanos() < 1) {
      dt = VirtualDuration::Nanos(1);
    }
    pending_event_ = sim_->ScheduleAfter(dt, [this] { OnCompletionEvent(); });
  }

  void OnCompletionEvent() {
    pending_event_ = kInvalidEvent;
    Settle();
    double eps = 1e-6 + 1e-9 * service_;
    std::vector<std::function<void()>> done;
    while (!by_target_.empty() && by_target_.begin()->first <= service_ + eps) {
      TaskId id = by_target_.begin()->second;
      by_target_.erase(by_target_.begin());
      auto it = tasks_.find(id);
      done.push_back(std::move(it->second.on_complete));
      tasks_.erase(it);
    }
    if (done.empty()) {
      Reschedule();
      return;
    }
    Reschedule();
    for (auto& fn : done) {
      if (fn) {
        fn();
      }
    }
  }

  Simulator* sim_;
  CpuModel::Config config_;
  double speed_factor_ = 1.0;
  double service_ = 0.0;
  VirtualTime last_settle_;
  double busy_core_work_ = 0.0;
  std::unordered_map<TaskId, Task> tasks_;
  std::multimap<double, TaskId> by_target_;
  EventId pending_event_ = kInvalidEvent;
  TaskId next_id_ = 1;
};

// One scripted operation, at an absolute virtual instant.
struct CpuOp {
  enum Kind { kStart, kCancel, kSpeed } kind;
  int64_t at_ns;
  int task;         // kStart: the new task's label; kCancel: an earlier label
  WorkUnits work;   // kStart
  double factor;    // kSpeed
};

// A seeded script: many operations share an instant, works come from a small
// set that includes zero (so targets collide and zero-work bursts queue up),
// cancels name earlier tasks that may already have finished, and the speed
// factor changes under load.
std::vector<CpuOp> MakeScript(uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  const WorkUnits kWorks[] = {0, 500, 1'000, 1'000, 2'000, 7'000, 40'000};
  const int64_t kGaps[] = {0, 0, 0, 1, 250, 1'000, 3'000, 20'000};
  const double kFactors[] = {1.0, 0.5, 0.25, 2.0};
  std::vector<CpuOp> script;
  int64_t at = 0;
  int started = 0;
  for (int i = 0; i < ops; ++i) {
    at += kGaps[rng() % std::size(kGaps)];
    uint64_t pick = rng() % 100;
    if (pick < 60 || started == 0) {
      script.push_back({CpuOp::kStart, at, started++, kWorks[rng() % std::size(kWorks)], 0.0});
    } else if (pick < 88) {
      script.push_back({CpuOp::kCancel, at, static_cast<int>(rng() % started), 0, 0.0});
    } else {
      script.push_back({CpuOp::kSpeed, at, 0, 0, kFactors[rng() % std::size(kFactors)]});
    }
  }
  return script;
}

// Everything a model run shows the rest of the simulator.
struct CpuRun {
  std::vector<std::pair<int, int64_t>> completions;  // (task, instant ns)
  std::vector<bool> cancels;                         // CancelTask results
  double busy_core_seconds = 0.0;
  uint64_t events_executed = 0;
  uint64_t events_cancelled = 0;

  bool operator==(const CpuRun&) const = default;
};

template <typename Model>
CpuRun Replay(const std::vector<CpuOp>& script, const CpuModel::Config& config) {
  Simulator sim(1);
  Model cpu(&sim, config);
  CpuRun run;
  std::vector<typename Model::TaskId> ids;
  for (const CpuOp& op : script) {
    sim.ScheduleAt(VirtualTime() + VirtualDuration::Nanos(op.at_ns), [&, op] {
      switch (op.kind) {
        case CpuOp::kStart:
          ids.push_back(cpu.StartTask(op.work, [&run, &sim, task = op.task] {
            run.completions.emplace_back(task, (sim.Now() - VirtualTime()).nanos());
          }));
          break;
        case CpuOp::kCancel:
          run.cancels.push_back(cpu.CancelTask(ids[op.task]));
          break;
        case CpuOp::kSpeed:
          cpu.SetSpeedFactor(op.factor);
          break;
      }
    });
  }
  sim.RunUntilIdle();
  run.busy_core_seconds = cpu.busy_core_seconds();
  run.events_executed = sim.events_executed();
  run.events_cancelled = sim.events_cancelled();
  return run;
}

TEST(CpuModelTest, MatchesTheMultimapModelOnRandomScripts) {
  CpuModel::Config contended;
  contended.cores = 2.0;
  contended.ctx_switch_penalty = 0.03;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::vector<CpuOp> script = MakeScript(seed, 2'000);
    for (const CpuModel::Config& config : {OneCore(), contended}) {
      CpuRun expected = Replay<ReferenceCpuModel>(script, config);
      CpuRun actual = Replay<CpuModel>(script, config);
      ASSERT_GT(expected.completions.size(), 100u);
      ASSERT_EQ(actual.completions, expected.completions) << "seed " << seed;
      ASSERT_EQ(actual.cancels, expected.cancels) << "seed " << seed;
      // Bit-identical, not merely close: the same floating-point operations
      // in the same order.
      ASSERT_EQ(actual.busy_core_seconds, expected.busy_core_seconds) << "seed " << seed;
      ASSERT_EQ(actual, expected) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace scalecheck
