// Destination-side in-order delivery buffer.
//
// Intermediate overlay nodes forward out of order; "the final destination is
// responsible for buffering received packets until they can be delivered in
// order" (§III-A). For realtime flows, "if a recovered packet arrives after
// later packets were already delivered, it is discarded" (§IV-A) — modeled
// by the hold timeout: when a gap outlives `max_hold`, delivery skips past
// it and stragglers are dropped as late.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "obs/counters.hpp"
#include "overlay/message.hpp"
#include "overlay/seq_window.hpp"
#include "sim/simulator.hpp"
#include "sim/timers.hpp"

namespace son::overlay {

class ReorderBuffer {
 public:
  using DeliverFn = std::function<void(const Message&)>;

  ReorderBuffer(sim::Simulator& sim, sim::Duration max_hold, DeliverFn deliver)
      : sim_{sim}, timers_{sim}, max_hold_{max_hold}, deliver_{std::move(deliver)} {}
  ReorderBuffer(const ReorderBuffer&) = delete;
  ReorderBuffer& operator=(const ReorderBuffer&) = delete;

  /// Offers a message with hdr.flow_seq; delivers everything that became
  /// in-order, holds gapped messages up to max_hold.
  void push(Message msg);

  struct Stats {
    std::uint64_t delivered = 0;
    std::uint64_t held = 0;             // arrived beyond a gap and waited
    std::uint64_t late_discarded = 0;   // arrived after the gap was skipped
    std::uint64_t skipped_missing = 0;  // gaps abandoned (hold timeout or span)
    std::uint64_t duplicates = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Hands `m` up; returns true, to serve as the window's take.
  bool deliver(const Message& m) {
    deliver_(m);
    ++stats_.delivered;
    return true;
  }
  /// Delivers the held messages directly above the floor, in order.
  void drain();
  /// Gives up every seq at or below `seq`: delivers the held ones in order,
  /// counts the rest as skipped, then drains.
  void skip_through(std::uint64_t seq);
  void arm_timer();
  void on_timer();
  /// Drops front entries whose seq is no longer held (already delivered).
  void prune_arrivals();

  sim::Simulator& sim_;
  sim::Timers timers_;
  sim::Duration max_hold_;
  DeliverFn deliver_;
  RecvWindow<Message> window_;  // the floor is the last seq delivered or skipped
  /// Hold deadlines in ARRIVAL order (window_ is in seq order). The skip
  /// timer fires at the oldest arrival + max_hold, so a late low-seq
  /// retransmission cannot reset the deadline of older held messages. Arrival
  /// times are monotone and each seq is held at most once, so lazy
  /// front-pruning is exact.
  std::deque<std::pair<std::uint64_t, sim::TimePoint>> arrivals_;
  sim::EventId timer_ = sim::kInvalidEventId;  // the skip timer
  Stats stats_;
  static constexpr obs::Field kCounterFields[] = {
      {"overlay.reorder.held", offsetof(Stats, held)},
      {"overlay.reorder.skipped_missing", offsetof(Stats, skipped_missing)},
      {"overlay.reorder.late_discarded", offsetof(Stats, late_discarded)}};
  obs::Published published_{&stats_, kCounterFields};
};

}  // namespace son::overlay
