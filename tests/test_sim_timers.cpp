// sim::Timers: an owner's timers die with it, and owning them costs no
// allocation.
#include "sim/timers.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/alloc_probe.hpp"

namespace son::sim {
namespace {

using namespace son::sim::literals;

/// An owner whose timers capture it, the way protocol endpoints do.
struct Ticker {
  explicit Ticker(Simulator& sim) : timers{sim} {}
  void tick() {
    ++ticks;
    ids.push_back(timers.schedule(1_ms, [this]() { tick(); }));
  }
  Timers timers;
  std::vector<EventId> ids;
  int ticks = 0;
};

TEST(Timers, DestroyingTheOwnerCancelsEveryPendingTimer) {
  Simulator sim;
  Timers other{sim};
  int owned_fired = 0;
  int others_fired = 0;
  auto ticker = std::make_unique<Ticker>(sim);
  ticker->tick();  // a self-rescheduling chain, like the hello tick
  std::vector<EventId> owned;
  for (int i = 1; i <= 6; ++i) {
    owned.push_back(ticker->timers.schedule(Duration::milliseconds(i), [&]() { ++owned_fired; }));
  }
  EXPECT_TRUE(ticker->timers.cancel(owned[3]));
  sim.schedule(5_ms, [&]() { ++others_fired; });
  other.schedule(5_ms, [&]() { ++others_fired; });

  sim.run_until(TimePoint::zero() + 2_ms);  // fires owned[0], owned[1] and two ticks
  EXPECT_EQ(owned_fired, 2);
  EXPECT_EQ(ticker->ticks, 3);
  // Still pending: owned[2], owned[4], owned[5], the next tick and the two
  // events of other owners.
  ASSERT_EQ(sim.pending_events(), 6u);

  const std::vector<EventId> tick_ids = ticker->ids;
  ticker.reset();
  EXPECT_EQ(sim.pending_events(), 2u);
  for (const EventId id : owned) EXPECT_FALSE(sim.pending(id));
  for (const EventId id : tick_ids) EXPECT_FALSE(sim.pending(id));

  sim.run();
  EXPECT_EQ(owned_fired, 2);
  EXPECT_EQ(others_fired, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// The protocols' "is this timer armed?" test reads pending(id): an owned
// timer stops being pending, and leaves its owner's list, before its callback
// runs, so the callback cannot cancel itself and can re-arm through the id.
TEST(Timers, PendingEndsWhenTheCallbackStarts) {
  Simulator sim;
  auto timers = std::make_unique<Timers>(sim);
  EventId id = kInvalidEventId;
  int fired = 0;
  std::function<void()> tick = [&]() {
    ++fired;
    EXPECT_FALSE(timers->pending(id));
    EXPECT_FALSE(timers->cancel(id));
    if (fired < 3) id = timers->schedule(1_ms, tick);
  };
  id = timers->schedule(1_ms, tick);
  EXPECT_TRUE(timers->pending(id));
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(timers->pending(id));

  id = timers->schedule(1_ms, tick);
  timers.reset();  // the owner's list is intact after the self-cancels
  EXPECT_FALSE(sim.pending(id));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Timers, OwnedTimersAllocateNothingAtSteadyState) {
  Simulator sim;
  Timers timers{sim};
  std::uint64_t fired = 0;
  // Up to 100 owned timers in flight at once, fired out of schedule order.
  const auto round = [&]() {
    for (int i = 0; i < 100; ++i) {
      timers.schedule(Duration::microseconds((i * 37) % 100), [&fired]() { ++fired; });
    }
    sim.run();
  };
  for (int r = 0; r < 10; ++r) round();  // warm-up: the slot pool reaches its peak
  const std::uint64_t before = alloc_count();
  for (int r = 0; r < 1000; ++r) round();
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_EQ(fired, 1010u * 100u);
}

}  // namespace
}  // namespace son::sim
