#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace scalecheck {
namespace {

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim(1);
  std::vector<double> times;
  sim.ScheduleAfter(VirtualDuration::Seconds(2), [&] { times.push_back(sim.Now().seconds()); });
  sim.ScheduleAfter(VirtualDuration::Seconds(1), [&] { times.push_back(sim.Now().seconds()); });
  uint64_t executed = sim.RunUntilIdle();
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(SimulatorTest, RunStopsAtHorizonAndAdvancesClock) {
  Simulator sim(1);
  bool late_ran = false;
  sim.ScheduleAfter(VirtualDuration::Seconds(10), [&] { late_ran = true; });
  sim.Run(VirtualTime::Zero() + VirtualDuration::Seconds(5));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.Now().seconds(), 5.0);  // clock moved to the horizon
  sim.RunUntilIdle();
  EXPECT_TRUE(late_ran);
}

TEST(SimulatorTest, EventExactlyAtHorizonRuns) {
  Simulator sim(1);
  bool ran = false;
  sim.ScheduleAfter(VirtualDuration::Seconds(5), [&] { ran = true; });
  sim.Run(VirtualTime::Zero() + VirtualDuration::Seconds(5));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim(1);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(VirtualDuration::Millis(1), chain);
    }
  };
  sim.ScheduleAfter(VirtualDuration::Millis(1), chain);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ((sim.Now() - VirtualTime::Zero()).millis() % 1000, 5);
}

TEST(SimulatorTest, RequestStopExitsRun) {
  Simulator sim(1);
  int ran = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAfter(VirtualDuration::Seconds(i), [&] {
      if (++ran == 3) {
        sim.RequestStop();
      }
    });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
}

TEST(SimulatorTest, CancelStopsEvent) {
  Simulator sim(1);
  bool ran = false;
  EventId id = sim.ScheduleAfter(VirtualDuration::Seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, SchedulingIntoThePastDies) {
  Simulator sim(1);
  sim.ScheduleAfter(VirtualDuration::Seconds(5), [] {});
  sim.RunUntilIdle();
  EXPECT_DEATH(sim.ScheduleAt(VirtualTime::Zero(), [] {}), "past");
}

// PeriodicClockTimer with the Simulator as its Clock: the one periodic timer
// the simulated cluster, the fidelity guard and the DFS model schedule with.
TEST(PeriodicTimerTest, FiresAtPeriod) {
  Simulator sim(1);
  std::vector<int64_t> fire_ms;
  PeriodicClockTimer timer(&sim, VirtualDuration::Millis(100),
                           [&] { fire_ms.push_back((sim.Now() - VirtualTime::Zero()).millis()); });
  timer.Start(VirtualDuration::Millis(50));
  sim.Run(VirtualTime::Zero() + VirtualDuration::Millis(360));
  EXPECT_EQ(fire_ms, (std::vector<int64_t>{50, 150, 250, 350}));
}

TEST(PeriodicTimerTest, StopPreventsFutureFirings) {
  Simulator sim(1);
  int fires = 0;
  PeriodicClockTimer timer(&sim, VirtualDuration::Millis(10), [&] {
    if (++fires == 3) {
      timer.Stop();
    }
  });
  timer.Start(VirtualDuration::Zero());
  sim.RunUntilIdle();
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(timer.armed());
}

TEST(PeriodicTimerTest, DestructionWhileArmedIsSafe) {
  Simulator sim(1);
  {
    PeriodicClockTimer timer(&sim, VirtualDuration::Millis(10), [] {});
    timer.Start(VirtualDuration::Zero());
  }
  // The cancelled event must not fire a dangling callback.
  sim.Run(VirtualTime::Zero() + VirtualDuration::Millis(100));
}

}  // namespace
}  // namespace scalecheck
