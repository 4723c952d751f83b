// Scripted failure injection for experiments.
//
// Wraps an Internet with schedule-at-time failure/repair primitives so that
// benchmarks read as scenario scripts ("cut the Chicago–Denver fiber at
// t=10s, restore at t=70s"). Destroying a script cancels the steps it has
// not yet run.
#pragma once

#include <functional>

#include "net/internet.hpp"
#include "sim/simulator.hpp"
#include "sim/timers.hpp"

namespace son::net {

class FailureScript {
 public:
  FailureScript(sim::Simulator& sim, Internet& internet) : timers_{sim}, net_{internet} {}

  /// Link goes down at `at`; comes back at `restore` if restore > at.
  void cut_link(sim::TimePoint at, LinkId link,
                sim::TimePoint restore = sim::TimePoint::zero());
  void cut_router(sim::TimePoint at, RouterId router,
                  sim::TimePoint restore = sim::TimePoint::zero());
  void isp_outage(sim::TimePoint at, IspId isp,
                  sim::TimePoint restore = sim::TimePoint::zero());

  /// Forces `rate` loss on both directions of `link` during [from, until).
  void loss_burst(sim::TimePoint from, sim::TimePoint until, LinkId link, double rate);

  /// Host-level outage: every access link of `host` drops all traffic in
  /// both directions during [from, until). To the rest of the internet the
  /// host is unreachable without any believed-topology change — the way a
  /// crashed or partitioned machine actually looks from outside.
  void host_outage(sim::TimePoint from, sim::TimePoint until, HostId host);

  /// Arbitrary scripted action, for scenario steps the fixed primitives
  /// don't cover (e.g. overlay-level node crash/recover churn events).
  void at(sim::TimePoint t, std::function<void()> fn);

 private:
  sim::Timers timers_;
  Internet& net_;
};

}  // namespace son::net
