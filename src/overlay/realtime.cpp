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
  const std::uint8_t n =
      std::clamp<std::uint8_t>(nm_mode_ ? trigger.nm_requests : 1, 1, kRtMaxRequests);
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

  RecvState rec;
  rec.timers.reserve(n + 1);
  for (std::uint8_t i = 0; i < n; ++i) {
    const sim::Duration at = req_spacing * static_cast<std::int64_t>(i);
    rec.timers.push_back(timers_.schedule(
        at, [this, missing, responder_budget]() { send_request(missing, responder_budget); }));
  }
  // Expiry: if the packet has not arrived by the end of the budget (plus a
  // final one-way trip), give up on it, and on it alone: gaps revealed by
  // messages with different deadlines left expire out of seq order.
  const sim::Duration expiry = std::max(budget, rtt) + rtt;
  rec.timers.push_back(timers_.schedule(expiry, [this, missing]() {
    RecvState* s = recv_.find(missing);
    if (s == nullptr || s->seen()) return;
    s->end(timers_);
    ++stats_.expired_unrecovered;
    recv_.advance(kSeen);
  }));
  recv_.put(missing, std::move(rec), kSeen);
}

void RealtimeEndpointBase::send_request(std::uint64_t missing, sim::Duration responder_budget) {
  const RecvState* s = recv_.find(missing);
  if (s == nullptr || s->seen()) return;
  LinkFrame f = frame(FrameType::kRetransRequest);
  f.ids.push_back(missing);
  f.budget = responder_budget;
  ctx_.send_frame(std::move(f));
  ++stats_.requests_sent;
}

void RealtimeEndpointBase::handle_data(const LinkFrame& f) {
  const std::uint64_t seq = f.seq;
  RecvState* s = recv_.find(seq);
  if (seq <= recv_.floor() || (s != nullptr && s->seen())) {
    ++stats_.duplicates;
    return;
  }
  // A frame far ahead gives up, at once, every seq that falls out of the
  // span, and every missing seq more than kRtMaxNewGaps below it (the sender
  // keeps only kRtSenderHistory to resend them from).
  std::uint64_t through = recv_.in_span(seq) ? 0 : seq - kMaxRecvSpan;
  if (seq > recv_.top() + kRtMaxNewGaps + 1) through = seq - kRtMaxNewGaps - 1;
  stats_.expired_unrecovered += recv_.give_up_through(through, [this](RecvState& g) {
    if (g.seen()) return;
    g.end(timers_);
    ++stats_.expired_unrecovered;
  });
  // Gap detection: every seq between the highest one known and this one is
  // missing.
  const std::uint64_t gap_from = recv_.top() + 1;
  if (s != nullptr) {
    s->end(timers_);
    ++stats_.recovered;
    recv_.advance(kSeen);
  } else {
    recv_.put(seq, RecvState{}, kSeen);
  }

  if (f.msg) {
    ctx_.deliver_up(*f.msg, f.link);
    for (std::uint64_t m = gap_from; m < seq; ++m) note_gap(m, f.msg->hdr);
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
