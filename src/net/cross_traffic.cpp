#include "net/cross_traffic.hpp"

namespace son::net {

CrossTraffic::CrossTraffic(sim::Simulator& sim, Internet& internet, const Options& opts,
                           sim::Rng rng)
    : sim_{sim}, timers_{sim}, internet_{internet}, opts_{opts}, rng_{rng} {
  const auto [a, b] = internet_.link_endpoints(opts_.link);
  const RouterId to = (opts_.from == a) ? b : a;
  // Fat, loss-free access links: the congested resource is the backbone link
  // itself, not the stubs' attachments.
  LinkConfig access;
  access.prop_delay = sim::Duration::microseconds(10);
  access.bandwidth_bps = 0;  // infinite
  src_ = internet_.add_host("xtraffic-src");
  dst_ = internet_.add_host("xtraffic-dst");
  internet_.attach_host(src_, opts_.from, access);
  internet_.attach_host(dst_, to, access);
  internet_.bind(dst_, [this](const Datagram&) { ++received_; });
  timers_.schedule_at(opts_.start, [this]() { tick(); });
}

void CrossTraffic::tick() {
  if (sim_.now() >= opts_.stop) return;
  Datagram d;
  d.src = src_;
  d.dst = dst_;
  d.size_bytes = opts_.packet_bytes;
  internet_.send(std::move(d));
  ++sent_;
  // Poisson arrivals at the configured bit rate.
  const double pps = opts_.rate_bps / (8.0 * opts_.packet_bytes);
  timers_.schedule(sim::Duration::from_seconds_f(rng_.exponential(1.0 / pps)),
                   [this]() { tick(); });
}

}  // namespace son::net
