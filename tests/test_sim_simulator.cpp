#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace son::sim {
namespace {

using namespace son::sim::literals;

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  TimePoint seen;
  sim.schedule(10_ms, [&]() { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::zero() + 10_ms);
  EXPECT_EQ(sim.now(), TimePoint::zero() + 10_ms);
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10_ms, [&]() { ++fired; });
  sim.schedule(30_ms, [&]() { ++fired; });
  sim.run_until(TimePoint::zero() + 20_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::zero() + 20_ms);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_for(5_ms);
  EXPECT_EQ(sim.now(), TimePoint::zero() + 5_ms);
  sim.run_for(5_ms);
  EXPECT_EQ(sim.now(), TimePoint::zero() + 10_ms);
}

TEST(Simulator, EventAtDeadlineFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule(10_ms, [&]() { fired = true; });
  sim.run_until(TimePoint::zero() + 10_ms);
  EXPECT_TRUE(fired);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(5_ms, [&]() {
    // From inside an event, scheduling with negative delay must not move
    // time backwards.
    sim.schedule(-3_ms, [&]() { EXPECT_EQ(sim.now(), TimePoint::zero() + 5_ms); });
  });
  sim.run();
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.schedule(5_ms, [&]() {
    sim.schedule_at(TimePoint::zero(), [&]() { EXPECT_GE(sim.now(), TimePoint::zero() + 5_ms); });
  });
  EXPECT_EQ(sim.run(), 2u);
}

TEST(Simulator, CascadingEventsRunToCompletion) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) sim.schedule(1_ms, recurse);
  };
  sim.schedule(1_ms, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), TimePoint::zero() + 100_ms);
}

TEST(Simulator, CancelWorksThroughSimulator) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(10_ms, [&]() { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, EventsFiredCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(Duration::milliseconds(i), []() {});
  sim.run();
  EXPECT_EQ(sim.events_fired(), 7u);
}

TEST(Simulator, DeterministicInterleaving) {
  const auto run_once = []() {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(Duration::milliseconds(i % 7), [&order, i]() { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace son::sim
