// son-analyze fixture: NEGATIVE cases for timer-lifecycle — every pattern
// here is a sanctioned way to own a timer, so the rule must stay silent.
#include <vector>

namespace sim {
using EventId = unsigned long long;
struct Simulator {
  EventId schedule(long delay, void* cb);
  bool cancel(EventId id);
};
struct Timers {
  EventId schedule(long delay, void* cb);
  EventId schedule_at(long when, void* cb);
  bool cancel(EventId id);
  bool pending(EventId id) const;
};
}  // namespace sim

// A kept id and a this-capturing callback, both scheduled on the owner's
// Timers: destroying the owner cancels them.
struct Owned {
  sim::Timers timers_;
  sim::EventId tick_ = 0;
  std::vector<sim::EventId> bursts_;
  int hits_ = 0;
  void arm() {
    if (timers_.pending(tick_)) return;
    tick_ = timers_.schedule_at(5, [this]() { arm(); });
    bursts_.push_back(this->timers_.schedule(1, [this]() { ++hits_; }));
  }
};

// A Timers member inherited from a base class counts as the owner's own.
struct Base {
  sim::Timers timers_;
};
struct Derived : Base {
  sim::EventId retransmit_ = 0;
  void arm() { retransmit_ = timers_.schedule(2, [this]() { arm(); }); }
};

// A callback that does not capture `this`, with its id discarded, owes
// nothing to the owner: plain Simulator::schedule is fine.
struct NoCapture {
  sim::Simulator& sim_;
  void go(int* counter) {
    sim_.schedule(1, [counter]() { ++*counter; });
  }
};
