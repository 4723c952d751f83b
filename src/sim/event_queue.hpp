// Priority event queue for the discrete-event simulator.
//
// Events are (time, sequence) ordered: ties in time fire in schedule order,
// which keeps runs fully deterministic. The heap holds 24-byte POD entries;
// callbacks live in a generation-tagged slot pool, so schedule/fire/cancel
// are O(log n) heap operations with zero hash-table traffic and zero
// per-event allocation at steady state (small closures are stored inline in
// the slot — see sim/callback.hpp).
//
// Events work in place. schedule() constructs the closure directly in its
// slot, and fire_next() runs it there: the slot is disarmed and its id
// retired before the call (so a self-cancel returns false), and it rejoins
// the free list only after the callback returns. The pool grows in
// fixed-size chunks that never move, so a callback that schedules cannot
// relocate its own closure.
//
// Cancellation is lazy: a cancelled event's callback is destroyed
// immediately, but its heap entry stays and is skipped when it surfaces; the
// slot is recycled at that point.
//
// An event may be scheduled for an Owner (see sim/timers.hpp). Its slot then
// records the owner and sits on the owner's intrusive list of pending
// events, linked through slot indices: fire_next() and cancel() unlink it
// when they disarm it, and cancel_all() walks exactly the owner's pending
// events. An owner holds one index and allocates nothing per event.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/check.hpp"
#include "sim/hot.hpp"
#include "sim/time.hpp"

namespace son::sim {

/// Identifies a scheduled event; usable to cancel it. 0 is never a valid id.
/// Encoding: (slot generation << 32) | (slot index + 1). A slot's generation
/// bumps whenever its event fires or its cancelled entry is retired, so an id
/// held across slot reuse can never cancel the slot's next occupant.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

 public:
  /// The head of one owner's list of pending events. It must not outlive
  /// the queue, and must be emptied with cancel_all() before it dies.
  class Owner {
   public:
    Owner() = default;
    Owner(const Owner&) = delete;
    Owner& operator=(const Owner&) = delete;

   private:
    friend class EventQueue;
    std::uint32_t head_ = kNilSlot;
  };

  /// Schedules `f` to fire at `when`, constructing it in its slot; with an
  /// `owner`, the event is also on that owner's list until it fires or is
  /// cancelled. Returns an id usable with cancel(); discarding it forfeits
  /// the only handle to the event, so callers that never cancel must say so
  /// explicitly (assign to a discarded value).
  template <typename F>
    requires std::is_invocable_r_v<void, std::remove_cvref_t<F>&>
  SON_HOT [[nodiscard]] EventId schedule(TimePoint when, F&& f, Owner* owner = nullptr) {
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot(idx);
    s.cb.store(std::forward<F>(f));
    SON_DCHECK(static_cast<bool>(s.cb), "scheduling a null callback");
    if (owner != nullptr) link(*owner, idx);
    return arm(when, idx);
  }

  /// Cancels a pending event. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op. Returns true if it was pending —
  /// callers must inspect it (a stale id silently doing nothing is exactly
  /// the bug class the generation tags exist to surface).
  SON_HOT [[nodiscard]] bool cancel(EventId id);

  /// Cancels every pending event of `owner`, leaving its list empty.
  /// Returns how many were cancelled.
  std::size_t cancel_all(Owner& owner);

  /// True while the event can still fire: scheduled, not yet fired, not
  /// cancelled. An event is no longer pending once its callback starts.
  [[nodiscard]] bool pending(EventId id) const { return pending_slot(id) != nullptr; }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event. Precondition: !empty().
  SON_HOT [[nodiscard]] TimePoint next_time() const;

  /// Fires the earliest pending event: stores its time into `clock`, then
  /// runs its callback inside its slot. Precondition: !empty(), and no call
  /// from inside a firing callback to clear().
  SON_HOT void fire_next(TimePoint& clock);

  /// Drops all pending events (their ids all become stale, and every
  /// owner's list empties).
  void clear();

 private:
  /// Slots per pool chunk; a chunk is allocated whole and never moves.
  static constexpr std::uint32_t kChunkBits = 7;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  struct Entry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;
    Owner* owner = nullptr;  // set while the event is pending and owned
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNilSlot;
    // The owner's list, while `owner` is set.
    std::uint32_t owner_prev = kNilSlot;
    std::uint32_t owner_next = kNilSlot;
    bool armed = false;  // true while the event is pending (not fired/cancelled)
  };

  // Invariant: a heap entry whose slot is armed owns it (gen matches). A
  // slot is recycled only when its heap entry is removed, so !armed means
  // the entry was cancelled.
  [[nodiscard]] Slot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkBits][idx & (kChunkSlots - 1)];
  }
  [[nodiscard]] Slot* pending_slot(EventId id) const;
  std::uint32_t acquire_slot();
  void link(Owner& owner, std::uint32_t idx);
  void unlink(Slot& s);
  EventId arm(TimePoint when, std::uint32_t idx);
  void free_slot(std::uint32_t idx) const;
  void skip_cancelled() const;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t used_ = 0;  // slots ever handed out; [used_, capacity) is fresh
  // Mutable so next_time() can retire cancelled heads lazily.
  mutable std::vector<Entry> heap_;
  mutable std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace son::sim
