#include "overlay/reorder_buffer.hpp"

namespace son::overlay {

void ReorderBuffer::push(Message msg) {
  const std::uint64_t seq = msg.hdr.flow_seq;
  if (seq < next_seq_) {
    ++stats_.late_discarded;
    return;
  }
  if (held_.contains(seq)) {
    ++stats_.duplicates;
    return;
  }
  if (seq == next_seq_) {
    deliver_(msg);
    ++stats_.delivered;
    ++next_seq_;
    drain();
    return;
  }
  held_.emplace(seq, Held{std::move(msg), sim_.now()});
  arrivals_.emplace_back(seq, sim_.now());
  ++stats_.held;
  arm_timer();
}

void ReorderBuffer::drain() {
  while (!held_.empty() && held_.begin()->first == next_seq_) {
    deliver_(held_.begin()->second.msg);
    ++stats_.delivered;
    ++next_seq_;
    held_.erase(held_.begin());
  }
  if (held_.empty() && timers_.cancel(timer_)) arrivals_.clear();
}

void ReorderBuffer::prune_arrivals() {
  while (!arrivals_.empty() && !held_.contains(arrivals_.front().first)) {
    arrivals_.pop_front();
  }
}

void ReorderBuffer::arm_timer() {
  if (timers_.pending(timer_)) return;
  prune_arrivals();
  if (arrivals_.empty()) return;
  // Deadline of the longest-waiting held message. Arrival times are
  // monotone, so an armed timer can only be early (harmless: on_timer
  // re-arms), never late.
  const sim::TimePoint due = arrivals_.front().second + max_hold_;
  timer_ = timers_.schedule_at(due, [this]() { on_timer(); });
}

void ReorderBuffer::on_timer() {
  const sim::TimePoint now = sim_.now();
  prune_arrivals();
  while (!arrivals_.empty() && now - arrivals_.front().second >= max_hold_) {
    // The longest-waiting held message has outlived max_hold: give up on
    // every gap below it. Deliver all held entries up to and including its
    // seq, in order, counting the abandoned gaps as skipped.
    const std::uint64_t expired_seq = arrivals_.front().first;
    while (!held_.empty() && held_.begin()->first <= expired_seq) {
      const std::uint64_t gap_end = held_.begin()->first;
      stats_.skipped_missing += gap_end - next_seq_;
      next_seq_ = gap_end;
      drain();
    }
    prune_arrivals();
  }
  arm_timer();
}

}  // namespace son::overlay
