// son-analyze fixture: POSITIVE cases for timer-lifecycle. Every schedule
// here either captures `this` or keeps its EventId in a member, and none is
// made on a sim::Timers member, so every one must be flagged — including the
// ids a destructor cancels, which only protect the owner while every path
// that schedules also remembers to cancel.
// Parsed structurally, never compiled.
#include <vector>

namespace sim {
using EventId = unsigned long long;
struct Simulator {
  EventId schedule(long delay, void* cb);
  EventId schedule_at(long when, void* cb);
  bool cancel(EventId id);
};
struct AliveToken {
  template <typename Fn>
  Fn wrap(Fn fn) const;
};
}  // namespace sim

// Case 1: member EventId scheduled, class has no destructor at all.
struct LeakyTimer {
  sim::Simulator& sim_;
  sim::EventId tick_ = 0;
  void arm() { tick_ = sim_.schedule(5, nullptr); }
};

// Case 2: both members kept; the destructor cancels only one of them.
struct HalfCancelled {
  sim::Simulator& sim_;
  sim::EventId a_ = 0;
  sim::EventId b_ = 0;
  void arm() {
    a_ = sim_.schedule(1, nullptr);
    b_ = sim_.schedule(2, nullptr);
  }
  ~HalfCancelled() { (void)sim_.cancel(a_); }
};

// Case 3: this-capturing callback with the EventId discarded outright.
struct FireAndForget {
  sim::Simulator& sim_;
  int hits_ = 0;
  void go() {
    sim_.schedule(1, [this]() { ++hits_; });
  }
};

// Case 4: kept id, cancelled in the destructor (accepted by the old
// destructor-cancel rule).
struct CancelledInDtor {
  sim::Simulator& sim_;
  sim::EventId tick_ = 0;
  void arm() { tick_ = sim_.schedule_at(5, nullptr); }
  ~CancelledInDtor() { (void)sim_.cancel(tick_); }
};

// Case 5: a container of ids, drained in the destructor.
struct IdList {
  sim::Simulator& sim_;
  std::vector<sim::EventId> ids_;
  void arm() { ids_.push_back(sim_.schedule(1, [this]() { arm(); })); }
  ~IdList() {
    for (sim::EventId t : ids_) (void)sim_.cancel(t);
  }
};

// Case 6: a this-capturing callback behind a liveness guard, reached
// through another object's simulator.
struct Guarded {
  struct Ctx {
    sim::Simulator& simulator();
  };
  Ctx& ctx_;
  sim::AliveToken guard_;
  int hits_ = 0;
  void go() {
    ctx_.simulator().schedule(1, guard_.wrap([this]() { ++hits_; }));
  }
};
