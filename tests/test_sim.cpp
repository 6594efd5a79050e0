// Unit tests for the discrete-event core.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace {

using lf::sim::simulation;

TEST(Simulation, StartsAtZero) {
  simulation s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulation, RunsEventsInTimeOrder) {
  simulation s;
  std::vector<int> order;
  s.schedule_at(2.0, [&]() { order.push_back(2); });
  s.schedule_at(1.0, [&]() { order.push_back(1); });
  s.schedule_at(3.0, [&]() { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulation, FifoTieBreakAtEqualTimes) {
  simulation s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(1.0, [&, i]() { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, RelativeScheduling) {
  simulation s;
  double fired_at = -1.0;
  s.schedule_at(5.0, [&]() {
    s.schedule(2.5, [&]() { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulation, RunUntilStopsAndAdvancesClock) {
  simulation s;
  int fired = 0;
  s.schedule_at(1.0, [&]() { ++fired; });
  s.schedule_at(10.0, [&]() { ++fired; });
  s.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, HandlerMayScheduleMore) {
  simulation s;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 100) s.schedule(0.001, chain);
  };
  s.schedule(0.0, chain);
  s.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(s.executed_events(), 100u);
}

TEST(Simulation, RejectsPastAndNegative) {
  simulation s;
  s.schedule_at(5.0, []() {});
  s.run();
  EXPECT_THROW(s.schedule_at(1.0, []() {}), std::invalid_argument);
  EXPECT_THROW(s.schedule(-1.0, []() {}), std::invalid_argument);
}

TEST(Simulation, PeriodicEventFiresEveryPeriod) {
  simulation s;
  std::vector<double> at;
  s.schedule_every(0.5, 1.0, [&]() { at.push_back(s.now()); });
  s.run_until(3.6);
  EXPECT_EQ(at, (std::vector<double>{0.5, 1.5, 2.5, 3.5}));
  EXPECT_EQ(s.pending_events(), 1u);  // the next run, at 4.5

  simulation zero;  // a zero first delay runs at once
  int runs = 0;
  zero.schedule_every(0.0, 0.25, [&]() { ++runs; });
  zero.run_until(1.0);
  EXPECT_EQ(runs, 5);  // 0, 0.25, 0.5, 0.75, 1.0
  EXPECT_THROW(zero.schedule_every(1.0, 0.0, []() {}), std::invalid_argument);
}

TEST(Simulation, PeriodicEventKeepsFifoOrderAtEqualTimes) {
  // The periodic run reschedules itself after its callback returns, as a
  // hand-written self-rescheduling closure does: an event the callback
  // schedules for the next period's instant runs before the next period,
  // and events scheduled before the periodic one at its instant run first.
  simulation s;
  std::vector<std::string> order;
  s.schedule_at(1.0, [&]() { order.push_back("before@1"); });
  s.schedule_every(1.0, 1.0, [&]() {
    order.push_back("tick@" + std::to_string(static_cast<int>(s.now())));
    s.schedule(1.0, [&]() {
      order.push_back("child@" + std::to_string(static_cast<int>(s.now())));
    });
  });
  s.schedule_at(1.0, [&]() { order.push_back("after@1"); });
  s.run_until(2.0);
  EXPECT_EQ(order, (std::vector<std::string>{"before@1", "tick@1", "after@1",
                                             "child@2", "tick@2"}));
}

TEST(Simulation, PeriodicCallbackDiesWithTheSimulation) {
  // The callback's captures live as long as the pending event: destroying
  // the simulation frees them (a self-capturing closure would leak them).
  auto state = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = state;
  {
    simulation s;
    s.schedule_every(0.1, 0.1, [state]() { ++*state; });
    state.reset();
    s.run_until(1.05);
    ASSERT_FALSE(watch.expired());
    EXPECT_EQ(*watch.lock(), 10);
  }
  EXPECT_TRUE(watch.expired());
}

}  // namespace
