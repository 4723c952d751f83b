#include "overlay/reliable_link.hpp"

#include <algorithm>

#include "obs/recorder.hpp"

namespace son::overlay {

// ---- Best effort -----------------------------------------------------------

bool BestEffortEndpoint::send(Message msg) {
  LinkFrame f = frame(FrameType::kData);
  f.msg = std::move(msg);
  ctx_.send_frame(std::move(f));
  return true;
}

void BestEffortEndpoint::on_frame(const LinkFrame& f) {
  if (f.type == FrameType::kData && f.msg) {
    ctx_.deliver_up(*f.msg, f.link);
  }
}

// ---- Reliable data link ----------------------------------------------------

sim::Duration ReliableLinkEndpoint::rto() const {
  return std::max(kMinRto, ctx_.rtt_estimate() * kRtoMultiplier);
}

bool ReliableLinkEndpoint::send(Message msg) {
  if (unacked_.size() >= cfg_.reliable_window) {
    // Window exhausted: the link is badly backlogged. Shedding here (with
    // accounting) keeps the simulation honest instead of growing unbounded.
    ctx_.count_protocol_drop(LinkProtocol::kReliable);
    return false;
  }
  const std::uint64_t seq = next_seq_++;
  unacked_.put(seq, Unacked{msg, ctx_.simulator().now(), 1, rto()});
  transmit_data(seq, msg, false);
  arm_retransmit_timer();
  return true;
}

void ReliableLinkEndpoint::transmit_data(std::uint64_t seq, const Message& msg, bool retrans) {
  LinkFrame f = frame(retrans ? FrameType::kRetransmission : FrameType::kData);
  f.seq = seq;
  f.msg = msg;
  ctx_.send_frame(std::move(f));
  if (retrans) {
    ++stats_.retransmissions;
    SON_OBS(ctx_.self(), obs::Category::kLink, obs::LinkEvent::kRetransmit, seq, 0);
  } else {
    ++stats_.data_sent;
  }
}

sim::TimePoint ReliableLinkEndpoint::next_rto_deadline() {
  sim::TimePoint earliest = sim::TimePoint::max();
  for (const auto [seq, u] : unacked_) {
    earliest = std::min(earliest, u.last_sent + u.rto);
  }
  return earliest;
}

void ReliableLinkEndpoint::arm_retransmit_timer() {
  if (unacked_.empty()) return;
  // Arm for the EARLIEST per-entry deadline, not a full rto() from now: an
  // entry that just missed a sweep must wait only its own residual timeout,
  // not up to ~2x RTO behind a freshly re-armed timer.
  const sim::TimePoint due = next_rto_deadline();
  if (timers_.pending(retransmit_timer_)) {
    if (retransmit_deadline_ <= due) return;  // early fire just re-arms
    timers_.cancel(retransmit_timer_);
  }
  retransmit_deadline_ = due;
  retransmit_timer_ = timers_.schedule_at(due, [this]() { on_retransmit_timer(); });
}

void ReliableLinkEndpoint::on_retransmit_timer() {
  const sim::TimePoint now = ctx_.simulator().now();
  for (auto [seq, u] : unacked_) {
    if (now - u.last_sent >= u.rto) {
      u.last_sent = now;
      ++u.sends;
      // Exponential backoff, capped: a blackholed peer is probed at a
      // bounded rate instead of a constant one forever.
      const sim::Duration next = std::min(u.rto * 2, kMaxRto);
      if (next > u.rto) {
        ++stats_.rto_backoffs;
        SON_OBS(ctx_.self(), obs::Category::kLink, obs::LinkEvent::kRtoBackoff, seq,
                static_cast<std::uint64_t>(next.ns()));
      }
      u.rto = next;
      transmit_data(seq, u.msg, true);
    }
  }
  arm_retransmit_timer();
}

void ReliableLinkEndpoint::handle_ack(const LinkFrame& f) {
  // Cumulative ack.
  unacked_.erase_through(f.cum_ack);
  // SACK inference. The nack walk in send_ack() enumerates EVERY hole up to
  // its bound, so a seq in (cum_ack, bound] that is absent from f.ids was in
  // the peer's out-of-order set — received, just not yet covered by the
  // cumulative ack. Retire those entries: RTO-retransmitting a packet the
  // peer already holds is pure waste (it shows up as a duplicate), and a
  // burst loss below them would otherwise spuriously fire a whole run of
  // per-entry timers. The bound is f.seq (the peer's highest seq seen) when
  // the nack list was not truncated by the cap; otherwise only holes up to
  // the last listed nack are known exhaustively.
  const std::uint64_t sack_bound =
      f.ids.size() < kMaxNacksPerAck ? f.seq : (f.ids.empty() ? 0 : f.ids.back());
  if (sack_bound > f.cum_ack) {
    auto nack = f.ids.begin();
    for (const auto [seq, u] : unacked_) {
      if (seq > sack_bound) break;
      while (nack != f.ids.end() && *nack < seq) ++nack;
      if (nack != f.ids.end() && *nack == seq) continue;  // still a hole at the peer
      ++stats_.sacked;
      unacked_.erase(seq);
    }
  }
  // Explicit nacks: retransmit immediately.
  const sim::TimePoint now = ctx_.simulator().now();
  for (const std::uint64_t seq : f.ids) {
    Unacked* u = unacked_.find(seq);
    if (u == nullptr) continue;
    // Avoid re-sending something sent a moment ago (the nack may have
    // crossed our retransmission in flight).
    if (now - u->last_sent < ctx_.rtt_estimate() / 2) continue;
    u->last_sent = now;
    ++u->sends;
    transmit_data(seq, u->msg, true);
  }
  if (unacked_.empty()) timers_.cancel(retransmit_timer_);
}

void ReliableLinkEndpoint::handle_data(const LinkFrame& f) {
  const std::uint64_t seq = f.seq;
  if (seq <= recv_.floor() || recv_.find(seq) != nullptr) {
    ++stats_.duplicates_received;
  } else if (!recv_.in_span(seq)) {
    // Too far ahead to track: refuse it unacked; the sender retransmits it
    // once the floor has moved.
    ctx_.count_protocol_drop(LinkProtocol::kReliable);
    return;
  } else {
    // Out-of-order forwarding hands the message up immediately; only the
    // final destination reorders (§III-A). The in-order ablation holds
    // gapped arrivals at this hop until the floor passes them.
    const bool forward = cfg_.reliable_ooo_forwarding;
    if (forward && f.msg) {
      ctx_.deliver_up(*f.msg, f.link);
      ++stats_.delivered_up;
    }
    recv_.put(seq, forward || !f.msg ? nullptr : std::make_unique<Message>(*f.msg),
              [&](std::unique_ptr<Message>& held) {
                if (held) {
                  ctx_.deliver_up(std::move(*held), f.link);
                  ++stats_.delivered_up;
                }
                return true;
              });
  }
  schedule_ack();
}

void ReliableLinkEndpoint::schedule_ack() {
  if (timers_.pending(ack_timer_)) return;
  ack_timer_ = timers_.schedule(kAckDelay, [this]() { send_ack(); });
}

void ReliableLinkEndpoint::send_ack() {
  LinkFrame f = frame(FrameType::kAck);
  f.cum_ack = recv_.floor();
  // Highest seq seen: together with the exhaustive nack list below this lets
  // the sender infer which out-of-order seqs we already hold (SACK).
  f.seq = recv_.top();
  // Nack the holes between the cumulative point and the highest seen, lowest
  // first, capped per frame: later acks cover the rest.
  recv_.holes(f.ids, kMaxNacksPerAck);
  if (!f.ids.empty()) {
    ++stats_.nack_batches;
    SON_OBS(ctx_.self(), obs::Category::kLink, obs::LinkEvent::kNackBatch, f.ids.size(),
            recv_.floor());
  }
  ctx_.send_frame(std::move(f));
}

void ReliableLinkEndpoint::on_frame(const LinkFrame& f) {
  switch (f.type) {
    case FrameType::kData:
    case FrameType::kRetransmission:
      handle_data(f);
      break;
    case FrameType::kAck:
      handle_ack(f);
      break;
    default:
      break;
  }
}

}  // namespace son::overlay
