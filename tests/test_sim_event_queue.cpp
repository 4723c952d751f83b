#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>
#include <memory>
#include <vector>

#include "sim/alloc_probe.hpp"

namespace son::sim {
namespace {

using namespace son::sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::milliseconds(ms); }

/// Fires every pending event, in order.
void drain(EventQueue& q) {
  TimePoint clock;
  while (!q.empty()) q.fire_next(clock);
}

/// Fires the earliest pending event and returns its time.
TimePoint fire_one(EventQueue& q) {
  TimePoint clock;
  q.fire_next(clock);
  return clock;
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  std::ignore = q.schedule(at(30), [&]() { order.push_back(3); });
  std::ignore = q.schedule(at(10), [&]() { order.push_back(1); });
  std::ignore = q.schedule(at(20), [&]() { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    std::ignore = q.schedule(at(5), [&order, i]() { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(at(10), [&]() { ++fired; });
  std::ignore = q.schedule(at(20), [&]() { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  drain(q);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(at(10), []() {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelFiredEventIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(at(10), []() {});
  EXPECT_TRUE(q.pending(id));
  EXPECT_EQ(fire_one(q), at(10));
  EXPECT_FALSE(q.pending(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId id = q.schedule(at(10), []() {});
  std::ignore = q.schedule(at(20), []() {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.next_time(), at(20));
}

TEST(EventQueue, PopReturnsTimeAndCallback) {
  EventQueue q;
  int x = 0;
  TimePoint clock;
  TimePoint seen_by_callback;
  std::ignore = q.schedule(at(7), [&]() {
    seen_by_callback = clock;
    x = 42;
  });
  q.fire_next(clock);
  EXPECT_EQ(clock, at(7));
  EXPECT_EQ(seen_by_callback, at(7));  // the clock is set before the call
  EXPECT_EQ(x, 42);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) std::ignore = q.schedule(at(i), []() {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// ---- Slot-pool semantics ---------------------------------------------------

TEST(EventQueue, IdsStayUniqueAcrossSlotReuse) {
  EventQueue q;
  std::vector<EventId> seen;
  // Fire-and-reschedule reuses pool slots heavily; every id must be fresh.
  for (int round = 0; round < 100; ++round) {
    seen.push_back(q.schedule(at(round), []() {}));
    (void)fire_one(q);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(EventQueue, StaleIdCannotCancelSlotsNextOccupant) {
  EventQueue q;
  const EventId old_id = q.schedule(at(10), []() {});
  (void)fire_one(q);  // fires; the slot is recycled
  int fired = 0;
  std::ignore = q.schedule(at(20), [&]() { ++fired; });  // reuses the slot
  EXPECT_FALSE(q.cancel(old_id));          // stale generation: no-op
  EXPECT_EQ(q.size(), 1u);
  drain(q);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelledIdStaysStaleAfterSlotReuse) {
  EventQueue q;
  const EventId a = q.schedule(at(10), []() {});
  EXPECT_TRUE(q.cancel(a));    // the last pending event: its entry retires now
  std::ignore = q.schedule(at(5), []() {});  // may reuse a's slot
  (void)fire_one(q);
  int fired = 0;
  std::ignore = q.schedule(at(30), [&]() { ++fired; });  // may reuse a's slot
  EXPECT_FALSE(q.cancel(a));
  drain(q);
  EXPECT_EQ(fired, 1);
}

// With nothing pending, no next_time() or fire_next() comes to retire
// cancelled entries as they surface, so cancel() retires them when the last
// pending event goes: timers set and cancelled on an otherwise idle queue
// reuse their slots instead of piling up in the heap and the pool.
TEST(EventQueue, CancellingTheLastPendingEventRetiresTheCancelledEntries) {
  EventQueue q;
  const auto set_and_cancel = [&q](std::int64_t ms) {
    const EventId a = q.schedule(at(ms), []() {});
    const EventId b = q.schedule(at(ms + 100), []() {});
    EXPECT_TRUE(q.cancel(b));
    EXPECT_TRUE(q.cancel(a));
  };
  set_and_cancel(0);
  const std::uint64_t before = alloc_count();
  for (int i = 1; i <= 10'000; ++i) set_and_cancel(i);
  EXPECT_EQ(alloc_count() - before, 0u);
  EXPECT_TRUE(q.empty());
  int fired = 0;
  std::ignore = q.schedule(at(5), [&]() { ++fired; });
  drain(q);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ClearInvalidatesOutstandingIds) {
  EventQueue q;
  const EventId a = q.schedule(at(10), []() {});
  q.clear();
  int fired = 0;
  std::ignore = q.schedule(at(10), [&]() { ++fired; });  // reuses slot 0 post-clear
  EXPECT_FALSE(q.cancel(a));
  drain(q);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, LargeCallablesFallBackToHeapStorage) {
  EventQueue q;
  std::array<std::uint64_t, 64> big{};  // 512 bytes — beyond the inline buffer
  big[0] = 7;
  big[63] = 9;
  std::uint64_t sum = 0;
  std::ignore = q.schedule(at(1), [big, &sum]() { sum = big[0] + big[63]; });
  drain(q);
  EXPECT_EQ(sum, 16u);
}

TEST(EventQueue, MoveOnlyCallablesAreSupported) {
  EventQueue q;
  auto owned = std::make_unique<int>(41);
  int got = 0;
  // std::function required copyable callables; the pooled Callback does not.
  std::ignore = q.schedule(at(1), [owned = std::move(owned), &got]() { got = *owned + 1; });
  drain(q);
  EXPECT_EQ(got, 42);
}

TEST(EventQueue, CancelReleasesCapturedStateEagerly) {
  EventQueue q;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const EventId id = q.schedule(at(100), [token = std::move(token)]() {});
  EXPECT_TRUE(q.cancel(id));
  // The entry is still in the heap (lazy removal) but the closure is gone.
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, ManyInterleavedCancellations) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(at(i), [&]() { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), 500u);
  drain(q);
  EXPECT_EQ(fired, 500);
}

// ---- In-place firing ---------------------------------------------------------

TEST(EventQueue, FiringCallbackOutgrowsThePoolWithoutMoving) {
  EventQueue q;
  const auto word = [](std::size_t i) { return 0x9E3779B97F4A7C15ULL * (i + 1); };
  std::array<std::uint64_t, 8> pattern{};
  for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = word(i);
  int children = 0;
  bool intact = false;
  // The closure runs inside its slot while it schedules more events than a
  // pool chunk holds; if growing the pool moved the slot, reading the
  // captures afterwards would read freed memory (ASan reports it).
  std::ignore = q.schedule(at(1), [&q, &children, &intact, word, pattern,
                                   tag = std::make_unique<int>(7)]() {
    for (int i = 0; i < 1000; ++i) std::ignore = q.schedule(at(2), [&children]() { ++children; });
    intact = *tag == 7;
    for (std::size_t i = 0; i < pattern.size(); ++i) intact = intact && pattern[i] == word(i);
  });
  EXPECT_EQ(fire_one(q), at(1));
  EXPECT_TRUE(intact);
  EXPECT_EQ(q.size(), 1000u);
  drain(q);
  EXPECT_EQ(children, 1000);
}

TEST(EventQueue, SelfCancelFromTheFiringCallbackReturnsFalse) {
  EventQueue q;
  EventId self = kInvalidEventId;
  int runs = 0;
  bool cancelled = true;
  bool pending_inside = true;
  int captured = 0;
  self = q.schedule(at(1), [&, token = std::make_shared<int>(5)]() {
    ++runs;
    pending_inside = q.pending(self);
    cancelled = q.cancel(self);
    captured = *token;  // the self-cancel must not have destroyed the closure
  });
  EXPECT_TRUE(q.pending(self));
  drain(q);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(captured, 5);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(self));
}

TEST(EventQueue, FiringSlotIsNotReusedWhileItsCallbackRuns) {
  EventQueue q;
  EventId outer = kInvalidEventId;
  EventId inner = kInvalidEventId;
  outer = q.schedule(at(1), [&]() { inner = q.schedule(at(2), []() {}); });
  (void)fire_one(q);
  EXPECT_NE(outer & 0xffffffffu, inner & 0xffffffffu);  // slot index differs
  EXPECT_FALSE(q.cancel(outer));
  EXPECT_TRUE(q.cancel(inner));
}

}  // namespace
}  // namespace son::sim
