#include "overlay/realtime.hpp"

#include <algorithm>

namespace son::overlay {

// ---- Sender role ------------------------------------------------------------

bool RealtimeEndpointBase::send(Message msg) {
  const std::uint64_t seq = next_seq_++;
  history_.put(seq, Sent{msg, ctx_.simulator().now()});

  LinkFrame f = frame(FrameType::kData);
  f.seq = seq;
  f.msg = std::move(msg);
  ctx_.send_frame(std::move(f));
  ++stats_.data_sent;
  prune_history();
  return true;
}

void RealtimeEndpointBase::prune_history() {
  const sim::TimePoint cutoff = ctx_.simulator().now() - kRtSenderHistory;
  while (!history_.empty() && history_.front().value.sent_at < cutoff) {
    history_.erase(history_.front().seq);
  }
}

void RealtimeEndpointBase::handle_request(const LinkFrame& f) {
  for (const std::uint64_t seq : f.ids) {
    // "The sender, upon receipt of the first request for a retransmission,
    // will schedule M retransmissions" — subsequent requests are no-ops.
    Sent* sent = history_.find(seq);
    if (sent == nullptr) continue;  // too old; nothing we can do
    if (sent->burst_scheduled) continue;
    sent->burst_scheduled = true;

    const std::uint8_t m = std::max<std::uint8_t>(
        1, nm_mode_ ? sent->msg.hdr.nm_retransmissions : 1);
    // Space the M retransmissions across the responder budget the receiver
    // granted us, minus the one-way trip for the final copy.
    sim::Duration spacing = sim::Duration::zero();
    if (cfg_.nm_spread && m > 1) {
      const sim::Duration usable = f.budget - ctx_.rtt_estimate() / 2;
      if (usable > sim::Duration::zero()) spacing = usable / (m);
    }
    for (std::uint8_t j = 0; j < m; ++j) {
      const sim::Duration at = spacing * static_cast<std::int64_t>(j);
      timers_.schedule(at, [this, seq]() {
        const Sent* hit = history_.find(seq);
        if (hit == nullptr) return;
        LinkFrame rf = frame(FrameType::kRetransmission);
        rf.seq = seq;
        rf.msg = hit->msg;
        ctx_.send_frame(std::move(rf));
        ++stats_.retransmissions_sent;
      });
    }
  }
}

// ---- Receiver role -----------------------------------------------------------

sim::Duration RealtimeEndpointBase::recovery_budget(const MessageHeader& h) const {
  if (h.deadline > sim::Duration::zero()) {
    const sim::TimePoint due = h.origin_time + h.deadline;
    const sim::Duration remaining = due - ctx_.simulator().now();
    return remaining > sim::Duration::zero() ? remaining : sim::Duration::zero();
  }
  return kRtDefaultBudget;
}

void RealtimeEndpointBase::note_gap(std::uint64_t missing, const MessageHeader& trigger) {
  if (pending_.contains(missing) || seen_.contains(missing) || missing <= seen_floor_) return;

  const std::uint8_t n =
      std::max<std::uint8_t>(1, nm_mode_ ? trigger.nm_requests : 1);
  const sim::Duration budget = recovery_budget(trigger);
  const sim::Duration rtt = ctx_.rtt_estimate();

  // Split the post-RTT slack between request spacing and retransmission
  // spacing: final (M-th) response to the final (N-th) request must still
  // arrive inside the budget.
  const sim::Duration slack =
      std::max(sim::Duration::zero(), budget - rtt);
  sim::Duration req_spacing = sim::Duration::zero();
  sim::Duration responder_budget = slack;
  if (cfg_.nm_spread && n > 1) {
    req_spacing = (slack / 2) / (n - 1);
    responder_budget = slack / 2;
  } else if (!cfg_.nm_spread) {
    responder_budget = sim::Duration::zero();  // back-to-back ablation
  }

  PendingRecovery rec;
  rec.requests_left = n;
  for (std::uint8_t i = 0; i < n; ++i) {
    const sim::Duration at = req_spacing * static_cast<std::int64_t>(i);
    rec.request_timers.push_back(timers_.schedule(
        at, [this, missing, responder_budget]() { send_request(missing, responder_budget); }));
  }
  // Expiry: if the packet has not arrived by the end of the budget (plus a
  // final one-way trip), give up on it, and on it alone: gaps revealed by
  // messages with different deadlines left expire out of seq order.
  const sim::Duration expiry = std::max(budget, rtt) + rtt;
  rec.request_timers.push_back(timers_.schedule(expiry, [this, missing]() {
    const auto it = pending_.find(missing);
    if (it == pending_.end()) return;
    pending_.erase(it);
    ++stats_.expired_unrecovered;
    mark_seen(missing);
  }));
  pending_.emplace(missing, std::move(rec));
}

void RealtimeEndpointBase::send_request(std::uint64_t missing, sim::Duration responder_budget) {
  if (!pending_.contains(missing)) return;
  LinkFrame f = frame(FrameType::kRetransRequest);
  f.ids.push_back(missing);
  f.budget = responder_budget;
  ctx_.send_frame(std::move(f));
  ++stats_.requests_sent;
}

void RealtimeEndpointBase::handle_data(const LinkFrame& f) {
  const std::uint64_t seq = f.seq;
  if (seq <= seen_floor_ || seen_.contains(seq)) {
    ++stats_.duplicates;
    return;
  }
  mark_seen(seq);

  const auto pit = pending_.find(seq);
  if (pit != pending_.end()) {
    for (const auto id : pit->second.request_timers) timers_.cancel(id);
    pending_.erase(pit);
    ++stats_.recovered;
  }

  if (f.msg) ctx_.deliver_up(*f.msg, f.link);

  // Gap detection: anything between the previous max and this seq is missing.
  if (seq > recv_max_ + 1 && f.msg) {
    for (std::uint64_t m = std::max(recv_max_ + 1, seen_floor_ + 1); m < seq; ++m) {
      if (!seen_.contains(m)) note_gap(m, f.msg->hdr);
    }
  }
  recv_max_ = std::max(recv_max_, seq);
}

void RealtimeEndpointBase::mark_seen(std::uint64_t seq) {
  // In-order seqs advance the floor directly; only out-of-order ones enter
  // the seen set, which is then compacted from the floor.
  if (seq == seen_floor_ + 1) {
    ++seen_floor_;
  } else {
    seen_.insert(seq);
  }
  while (seen_.contains(seen_floor_ + 1)) {
    seen_.erase(seen_floor_ + 1);
    ++seen_floor_;
  }
}

void RealtimeEndpointBase::on_frame(const LinkFrame& f) {
  switch (f.type) {
    case FrameType::kData:
    case FrameType::kRetransmission:
      handle_data(f);
      break;
    case FrameType::kRetransRequest:
      handle_request(f);
      break;
    default:
      break;
  }
}

}  // namespace son::overlay
