#include "sim/event_queue.hpp"

#include <algorithm>

namespace son::sim {

namespace {
constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | (slot + 1u);
}

/// Retires every id issued for a slot's current generation.
void bump(std::uint32_t& gen) {
  ++gen;
  if (gen == 0) ++gen;  // generation 0 would collide with kInvalidEventId
}
}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t idx = free_head_;
    SON_DCHECK(idx < used_, "free list points outside the slot pool");
    SON_DCHECK(!slot(idx).armed && !slot(idx).cb,
               "free-list slot still armed or holding a callback");
    free_head_ = slot(idx).next_free;
    return idx;
  }
  if (used_ == chunks_.size() * kChunkSlots) {
    // son-analyze: allow(hot-path-alloc) "slot pool grows one fixed chunk at a time to the peak live-event count, then stabilizes; pinned by alloc-probe test"
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return used_++;
}

void EventQueue::link(Owner& owner, std::uint32_t idx) {
  Slot& s = slot(idx);
  s.owner = &owner;
  s.owner_prev = kNilSlot;
  s.owner_next = owner.head_;
  if (owner.head_ != kNilSlot) slot(owner.head_).owner_prev = idx;
  owner.head_ = idx;
}

void EventQueue::unlink(Slot& s) {
  if (s.owner_prev != kNilSlot) {
    slot(s.owner_prev).owner_next = s.owner_next;
  } else {
    s.owner->head_ = s.owner_next;
  }
  if (s.owner_next != kNilSlot) slot(s.owner_next).owner_prev = s.owner_prev;
  s.owner = nullptr;
}

EventId EventQueue::arm(TimePoint when, std::uint32_t idx) {
  Slot& s = slot(idx);
  s.armed = true;
  // son-analyze: allow(hot-path-alloc) "heap capacity tracks the slot pool: growth stops once the pool stabilizes"
  heap_.push_back(Entry{when, next_seq_++, idx, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return make_id(idx, s.gen);
}

void EventQueue::free_slot(std::uint32_t idx) const {
  Slot& s = slot(idx);
  s.next_free = free_head_;
  free_head_ = idx;
}

EventQueue::Slot* EventQueue::pending_slot(EventId id) const {
  const auto raw = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (raw == 0 || raw > used_) return nullptr;
  Slot& s = slot(raw - 1);
  if (!s.armed || s.gen != static_cast<std::uint32_t>(id >> 32)) return nullptr;
  return &s;
}

bool EventQueue::cancel(EventId id) {
  Slot* s = pending_slot(id);
  if (s == nullptr) return false;
  // Lazy removal: the heap entry stays until it surfaces; the callback's
  // captured state is released eagerly (after the unlink: its destructor
  // may cancel more).
  if (s->owner != nullptr) unlink(*s);
  s->armed = false;
  s->cb.reset();
  --live_;
  return true;
}

std::size_t EventQueue::cancel_all(Owner& owner) {
  std::size_t n = 0;
  for (; owner.head_ != kNilSlot; ++n) {
    const bool was_pending = cancel(make_id(owner.head_, slot(owner.head_).gen));
    SON_DCHECK(was_pending, "owner list holds a slot that is not pending");
  }
  return n;
}

void EventQueue::skip_cancelled() const {
  while (!heap_.empty() && !slot(heap_.front().slot).armed) {
    Slot& s = slot(heap_.front().slot);
    SON_DCHECK(s.gen == heap_.front().gen,
               "cancelled heap entry's generation drifted from its slot");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    bump(s.gen);
    free_slot(heap_.back().slot);
    heap_.pop_back();
  }
  SON_DCHECK(live_ <= heap_.size(), "live counter exceeds heap entries");
}

TimePoint EventQueue::next_time() const {
  skip_cancelled();
  SON_DCHECK(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().time;
}

void EventQueue::fire_next(TimePoint& clock) {
  skip_cancelled();
  SON_DCHECK(!heap_.empty(), "fire_next() on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  Slot& s = slot(e.slot);
  SON_DCHECK(s.armed && s.gen == e.gen,
             "fired entry does not own its slot (stale generation or disarmed)");
  // The event stops being pending before its callback runs: its id goes
  // stale, and the slot stays off the free list until the call returns, so
  // nothing the callback schedules can land in (or move) the running closure.
  if (s.owner != nullptr) unlink(s);
  s.armed = false;
  bump(s.gen);
  --live_;
  clock = e.time;
  s.cb();
  s.cb.reset();
  free_slot(e.slot);
}

void EventQueue::clear() {
  heap_.clear();
  free_head_ = kNilSlot;
  for (std::uint32_t i = used_; i-- > 0;) {
    Slot& s = slot(i);
    if (s.owner != nullptr) unlink(s);
    s.cb.reset();
    s.armed = false;
    bump(s.gen);
    free_slot(i);
  }
  live_ = 0;
}

}  // namespace son::sim
