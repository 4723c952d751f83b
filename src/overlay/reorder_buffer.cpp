#include "overlay/reorder_buffer.hpp"

namespace son::overlay {

void ReorderBuffer::push(Message msg) {
  const std::uint64_t seq = msg.hdr.flow_seq;
  if (seq <= window_.floor()) {
    ++stats_.late_discarded;
    return;
  }
  if (window_.find(seq) != nullptr) {
    ++stats_.duplicates;
    return;
  }
  // A seq too far ahead to hold (a rebuilt buffer meeting a long-running
  // flow, say) first gives up every seq that falls out of the span.
  if (!window_.in_span(seq)) skip_through(seq - kMaxRecvSpan);
  window_.put(seq, std::move(msg), [this](const Message& m) { return deliver(m); });
  drain();
  if (window_.find(seq) == nullptr) return;  // delivered in order
  arrivals_.emplace_back(seq, sim_.now());
  ++stats_.held;
  arm_timer();
}

void ReorderBuffer::drain() {
  window_.advance([this](const Message& m) { return deliver(m); });
  if (window_.empty() && timers_.cancel(timer_)) arrivals_.clear();
}

void ReorderBuffer::skip_through(std::uint64_t seq) {
  stats_.skipped_missing +=
      window_.give_up_through(seq, [this](const Message& m) { deliver(m); });
  drain();
}

void ReorderBuffer::prune_arrivals() {
  while (!arrivals_.empty() && window_.find(arrivals_.front().first) == nullptr) {
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
    // every gap below it, delivering the held entries up to and including
    // its seq in order.
    skip_through(arrivals_.front().first);
    prune_arrivals();
  }
  arm_timer();
}

}  // namespace son::overlay
