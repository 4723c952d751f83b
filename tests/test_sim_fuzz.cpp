// Model-based fuzzing of the event queue: random schedule/cancel/fire
// sequences compared against a trivially-correct reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace son::sim {
namespace {

/// Reference model: a plain vector kept explicitly sorted by (time, seq).
class ReferenceQueue {
 public:
  /// `owner` < 0: unowned.
  std::uint64_t schedule(TimePoint when, int owner = -1) {
    entries_.push_back({when, seq_++, next_id_, owner});
    return next_id_++;
  }
  /// Drops every pending event of `owner`; returns how many.
  std::size_t drop_owner(int owner) {
    return std::erase_if(entries_, [owner](const Entry& e) { return e.owner == owner; });
  }
  bool cancel(std::uint64_t id) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [id](const Entry& e) { return e.id == id; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  std::uint64_t pop() {
    const auto it = std::min_element(entries_.begin(), entries_.end(),
                                     [](const Entry& a, const Entry& b) {
                                       return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
                                     });
    const std::uint64_t id = it->id;
    entries_.erase(it);
    return id;
  }
  [[nodiscard]] TimePoint next_time() const {
    return std::min_element(entries_.begin(), entries_.end(),
                            [](const Entry& a, const Entry& b) {
                              return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
                            })
        ->time;
  }

 private:
  struct Entry {
    TimePoint time;
    std::uint64_t seq;
    std::uint64_t id;
    int owner;
  };
  std::vector<Entry> entries_;
  std::uint64_t seq_ = 0;
  std::uint64_t next_id_ = 1;
};

TEST(EventQueueFuzz, MatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{seed};
    EventQueue q;
    ReferenceQueue ref;
    // Each callback reports the reference id it mirrors when it fires.
    std::vector<std::uint64_t> live_ids;  // ids believed pending (may be stale)
    std::map<EventId, std::uint64_t> id_map;  // real id -> ref id
    std::uint64_t fired_ref_id = 0;
    TimePoint clock;

    for (int step = 0; step < 3000; ++step) {
      const double dice = rng.uniform();
      if (dice < 0.5) {
        // Schedule at a random time (duplicates encouraged).
        const auto when = TimePoint::from_ns(rng.uniform_int(0, 50) * 1000);
        const std::uint64_t mirror = ref.schedule(when);
        const EventId real = q.schedule(when, [&fired_ref_id, mirror]() { fired_ref_id = mirror; });
        id_map[real] = mirror;
        live_ids.push_back(real);
      } else if (dice < 0.75 && !live_ids.empty()) {
        // Cancel a random remembered id (possibly already fired/cancelled).
        const std::size_t pick = rng.index(live_ids.size());
        const EventId victim = live_ids[pick];
        const bool did = q.cancel(victim);
        const bool ref_did = ref.cancel(id_map[victim]);
        ASSERT_EQ(did, ref_did) << "cancel divergence at step " << step;
      } else if (!q.empty()) {
        ASSERT_FALSE(ref.empty());
        ASSERT_EQ(q.next_time(), ref.next_time()) << "next_time at step " << step;
        const TimePoint due = ref.next_time();
        q.fire_next(clock);
        ASSERT_EQ(clock, due) << "fired time at step " << step;
        ASSERT_EQ(fired_ref_id, ref.pop()) << "fired event at step " << step;
      }
      ASSERT_EQ(q.size(), ref.size()) << "size divergence at step " << step;
      ASSERT_EQ(q.empty(), ref.empty());
    }
    // Drain both and compare the complete firing order.
    while (!q.empty()) {
      ASSERT_EQ(q.next_time(), ref.next_time());
      q.fire_next(clock);
      ASSERT_EQ(fired_ref_id, ref.pop());
    }
    ASSERT_TRUE(ref.empty());
  }
}

// Owners join the mix: events are scheduled for one of four owners or for
// none, and destroying a random owner (cancel_all, then a fresh Owner in its
// place) must drop exactly that owner's pending events, whether its list
// was last changed by a schedule, a fire or an id cancel.
TEST(EventQueueFuzz, DestroyedOwnerDropsExactlyItsPendingEvents) {
  constexpr int kOwners = 4;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{seed};
    EventQueue q;
    ReferenceQueue ref;
    std::vector<std::unique_ptr<EventQueue::Owner>> owners;
    for (int k = 0; k < kOwners; ++k) owners.push_back(std::make_unique<EventQueue::Owner>());
    std::vector<EventId> live_ids;
    std::map<EventId, std::uint64_t> id_map;
    std::uint64_t fired_ref_id = 0;
    TimePoint clock;

    for (int step = 0; step < 3000; ++step) {
      const double dice = rng.uniform();
      if (dice < 0.5) {
        const auto when = TimePoint::from_ns(rng.uniform_int(0, 50) * 1000);
        const int owner = static_cast<int>(rng.uniform_int(-1, kOwners - 1));
        const std::uint64_t mirror = ref.schedule(when, owner);
        const auto cb = [&fired_ref_id, mirror]() { fired_ref_id = mirror; };
        const EventId real = owner < 0 ? q.schedule(when, cb)
                                       : q.schedule(when, cb, owners[owner].get());
        id_map[real] = mirror;
        live_ids.push_back(real);
      } else if (dice < 0.65 && !live_ids.empty()) {
        const EventId victim = live_ids[rng.index(live_ids.size())];
        ASSERT_EQ(q.cancel(victim), ref.cancel(id_map[victim])) << "cancel at step " << step;
      } else if (dice < 0.75) {
        const auto k = static_cast<int>(rng.index(kOwners));
        ASSERT_EQ(q.cancel_all(*owners[k]), ref.drop_owner(k)) << "cancel_all at step " << step;
        owners[k] = std::make_unique<EventQueue::Owner>();
      } else if (!q.empty()) {
        ASSERT_EQ(q.next_time(), ref.next_time()) << "next_time at step " << step;
        q.fire_next(clock);
        ASSERT_EQ(fired_ref_id, ref.pop()) << "fired event at step " << step;
      }
      ASSERT_EQ(q.size(), ref.size()) << "size divergence at step " << step;
    }
    for (int k = 0; k < kOwners; ++k) {
      ASSERT_EQ(q.cancel_all(*owners[k]), ref.drop_owner(k)) << "final cancel_all " << k;
    }
    while (!q.empty()) {
      ASSERT_EQ(q.next_time(), ref.next_time());
      q.fire_next(clock);
      ASSERT_EQ(fired_ref_id, ref.pop());
    }
    ASSERT_TRUE(ref.empty());
  }
}

}  // namespace
}  // namespace son::sim
