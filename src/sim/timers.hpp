// The timers of one owner.
//
// A callback that captures its owner must not fire after the owner dies. The
// owner holds one Timers member and schedules such callbacks through it;
// destroying the Timers cancels every timer it scheduled that is still
// pending, so the owner needs no destructor and no list of ids, and keeps an
// id only to cancel or test one timer for a protocol reason. The list lives
// in the event queue's slots, so an owned timer allocates nothing more than
// Simulator::schedule. son-analyze's `timer-lifecycle` rule requires every
// this-capturing schedule, and every one whose id is kept in a member, to go
// through a Timers member. A Timers must not outlive its Simulator.
#pragma once

#include <utility>

#include "sim/simulator.hpp"

namespace son::sim {

class Timers {
 public:
  explicit Timers(Simulator& sim) : sim_{sim} {}
  Timers(const Timers&) = delete;
  Timers& operator=(const Timers&) = delete;
  ~Timers() { (void)sim_.cancel_all(owner_); }

  template <typename F>
  EventId schedule(Duration delay, F&& f) {
    return sim_.schedule(delay, std::forward<F>(f), &owner_);
  }
  template <typename F>
  EventId schedule_at(TimePoint when, F&& f) {
    return sim_.schedule_at(when, std::forward<F>(f), &owner_);
  }
  bool cancel(EventId id) { return sim_.cancel(id); }
  /// False from the moment the timer's callback starts.
  [[nodiscard]] bool pending(EventId id) const { return sim_.pending(id); }

 private:
  Simulator& sim_;
  EventQueue::Owner owner_;
};

}  // namespace son::sim
