#include "net/failures.hpp"

namespace son::net {

void FailureScript::cut_link(sim::TimePoint at, LinkId link, sim::TimePoint restore) {
  timers_.schedule_at(at, [this, link]() { net_.set_link_up(link, false); });
  if (restore > at) {
    timers_.schedule_at(restore, [this, link]() { net_.set_link_up(link, true); });
  }
}

void FailureScript::cut_router(sim::TimePoint at, RouterId router, sim::TimePoint restore) {
  timers_.schedule_at(at, [this, router]() { net_.set_router_up(router, false); });
  if (restore > at) {
    timers_.schedule_at(restore, [this, router]() { net_.set_router_up(router, true); });
  }
}

void FailureScript::isp_outage(sim::TimePoint at, IspId isp, sim::TimePoint restore) {
  timers_.schedule_at(at, [this, isp]() { net_.set_isp_up(isp, false); });
  if (restore > at) {
    timers_.schedule_at(restore, [this, isp]() { net_.set_isp_up(isp, true); });
  }
}

void FailureScript::loss_burst(sim::TimePoint from, sim::TimePoint until, LinkId link,
                               double rate) {
  const auto [a, b] = net_.link_endpoints(link);
  net_.link_dir(link, a).add_forced_loss_window(from, until, rate);
  net_.link_dir(link, b).add_forced_loss_window(from, until, rate);
}

void FailureScript::host_outage(sim::TimePoint from, sim::TimePoint until, HostId host) {
  for (AttachIndex a = 0; a < net_.attachments(host); ++a) {
    net_.access_dir(host, a, /*up=*/true).add_forced_loss_window(from, until, 1.0);
    net_.access_dir(host, a, /*up=*/false).add_forced_loss_window(from, until, 1.0);
  }
}

void FailureScript::at(sim::TimePoint t, std::function<void()> fn) {
  timers_.schedule_at(t, std::move(fn));
}

}  // namespace son::net
