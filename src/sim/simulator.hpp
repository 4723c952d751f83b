// Discrete-event simulator run loop.
//
// All simulated components hold a Simulator& and derive their notion of time
// exclusively from it: now() for reads, schedule()/cancel() for timers, and
// sim::Timers (sim/timers.hpp) for timers that capture their owner.
// Runs are deterministic given the same schedule order and RNG seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace son::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `f` to run `delay` from now, constructing it in its queue
  /// slot. Negative delays are clamped to "immediately" (still FIFO-ordered
  /// after events already due now). `owner` is set by sim::Timers only.
  template <typename F>
  EventId schedule(Duration delay, F&& f, EventQueue::Owner* owner = nullptr) {
    const Duration d = delay < Duration::zero() ? Duration::zero() : delay;
    return queue_.schedule(now_ + d, std::forward<F>(f), owner);
  }

  template <typename F>
  EventId schedule_at(TimePoint when, F&& f, EventQueue::Owner* owner = nullptr) {
    return queue_.schedule(when < now_ ? now_ : when, std::forward<F>(f), owner);
  }

  bool cancel(EventId id) { return queue_.cancel(id); }
  std::size_t cancel_all(EventQueue::Owner& owner) { return queue_.cancel_all(owner); }

  /// True while the event can still fire (see EventQueue::pending).
  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  /// Runs events until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Runs events with time <= deadline; afterwards now() == deadline (unless
  /// the queue drained earlier with no event at/after deadline, in which case
  /// now() still advances to deadline). Returns events fired.
  std::uint64_t run_until(TimePoint deadline);

  /// Runs events with time strictly < bound and leaves now() at the last
  /// fired event (it does NOT advance to bound). The sharded kernel advances
  /// each partition in rounds whose right edge must stay open: an event at
  /// exactly the horizon may still be preceded by a same-instant cross-shard
  /// arrival, so it belongs to a later round. Returns events fired.
  std::uint64_t run_before(TimePoint bound);

  /// Moves the clock forward to `t` without firing anything; every pending
  /// event must be at or after `t`. The sharded kernel calls it at a round
  /// barrier, where every earlier event has fired, so global events read the
  /// barrier time from each partition clock.
  void advance_to(TimePoint t) {
    SON_DCHECK(next_event_time() >= t, "advance_to would skip a pending event");
    if (now_ < t) now_ = t;
  }

  /// Convenience: run_until(now() + d).
  std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

  /// Time of the earliest pending event, or TimePoint::max() if none.
  [[nodiscard]] TimePoint next_event_time() const {
    return queue_.empty() ? TimePoint::max() : queue_.next_time();
  }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

 private:
  EventQueue queue_;
  TimePoint now_;
  std::uint64_t fired_ = 0;
};

}  // namespace son::sim
