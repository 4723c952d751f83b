// Background Internet cross-traffic.
//
// The paper's motivation for private networks — "Creating a private IP
// network eliminates contention with other applications on the Internet and
// therefore allows more predictable service" — implies the public Internet
// the overlay rides on IS contended. CrossTraffic drives third-party
// datagrams through a chosen backbone link so overlay frames compete in its
// FIFO queue for real: queueing delay rises and, past saturation, tail drops
// hit the overlay's hellos and data alike. The overlay's loss-aware routing
// then treats congestion exactly like loss and routes around it.
#pragma once

#include "net/internet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timers.hpp"

namespace son::net {

class CrossTraffic {
 public:
  struct Options {
    /// The backbone link to congest and the direction (from -> other end).
    LinkId link = kInvalidLink;
    RouterId from = kInvalidRouter;
    /// Offered background load in bits per second.
    double rate_bps = 50e6;
    std::uint32_t packet_bytes = 1200;
    sim::TimePoint start;
    sim::TimePoint stop;
  };

  /// Attaches two stub hosts at the link's endpoints and schedules the load.
  CrossTraffic(sim::Simulator& sim, Internet& internet, const Options& opts, sim::Rng rng);
  CrossTraffic(const CrossTraffic&) = delete;
  CrossTraffic& operator=(const CrossTraffic&) = delete;

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  void tick();

  sim::Simulator& sim_;
  sim::Timers timers_;
  Internet& internet_;
  Options opts_;
  sim::Rng rng_;
  HostId src_ = kInvalidHost;
  HostId dst_ = kInvalidHost;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace son::net
