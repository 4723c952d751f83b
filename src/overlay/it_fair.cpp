#include "overlay/it_fair.hpp"

#include <algorithm>

namespace son::overlay {

// ---- Shared base -------------------------------------------------------------

sim::Duration ItEndpointBase::pump_interval() const {
  return sim::Duration::from_seconds_f(1.0 / cfg_.it_egress_msgs_per_sec);
}

bool ItEndpointBase::enqueue(Message m) {
  const std::uint64_t key = key_of(m);
  Queue& q = queues_[key];
  const std::size_t cap = (protocol() == LinkProtocol::kITPriority)
                              ? cfg_.it_buffer_per_source
                              : cfg_.it_buffer_per_flow;
  bool admitted = true;
  if (q.msgs.size() >= cap) {
    admitted = handle_full_queue(q, std::move(m));
  } else {
    q.msgs.push_back(std::move(m));
  }
  if (admitted) ++stats_.admitted;
  arm_pump();
  return admitted;
}

void ItEndpointBase::arm_pump() {
  if (timers_.pending(pump_timer_)) return;
  pump_timer_ = timers_.schedule(pump_interval(), [this]() { pump(); });
}

void ItEndpointBase::pump() {
  // Round-robin over active (non-empty, eligible) keys: take the first key
  // strictly greater than the last-served one, wrapping around.
  auto pick = [this]() -> std::map<std::uint64_t, Queue>::iterator {
    auto start = queues_.upper_bound(rr_last_key_);
    for (auto it = start; it != queues_.end(); ++it) {
      if (!it->second.msgs.empty() && eligible(it->first)) return it;
    }
    for (auto it = queues_.begin(); it != start; ++it) {
      if (!it->second.msgs.empty() && eligible(it->first)) return it;
    }
    return queues_.end();
  };

  const auto it = pick();
  if (it == queues_.end()) return;  // nothing to serve; re-armed on enqueue

  rr_last_key_ = it->first;
  Message m = std::move(it->second.msgs.front());
  it->second.msgs.pop_front();
  if (it->second.msgs.empty()) queues_.erase(it);
  transmit(std::move(m));
  arm_pump();
}

// ---- Intrusion-Tolerant Priority ----------------------------------------------

bool ItPriorityEndpoint::handle_full_queue(Queue& q, Message m) {
  // Evict the oldest lowest-priority message of this source, provided the
  // incoming message outranks (or ties) it; otherwise the new message is
  // itself the lowest and is dropped.
  auto lowest = q.msgs.begin();
  for (auto it = q.msgs.begin(); it != q.msgs.end(); ++it) {
    if (it->hdr.priority < lowest->hdr.priority) lowest = it;  // oldest wins ties
  }
  if (m.hdr.priority < lowest->hdr.priority) {
    ++stats_.evicted_low_priority;
    ctx_.count_protocol_drop(LinkProtocol::kITPriority);
    return false;
  }
  q.msgs.erase(lowest);
  ++stats_.evicted_low_priority;
  ctx_.count_protocol_drop(LinkProtocol::kITPriority);
  q.msgs.push_back(std::move(m));
  return true;
}

bool ItPriorityEndpoint::send(Message msg) { return enqueue(std::move(msg)); }

void ItPriorityEndpoint::transmit(Message m) {
  LinkFrame f = frame(FrameType::kData);
  f.seq = ++stats_.data_sent;
  f.msg = std::move(m);
  ctx_.send_frame(std::move(f));
}

void ItPriorityEndpoint::on_frame(const LinkFrame& f) {
  if (f.type != FrameType::kData || !f.msg) return;
  ctx_.deliver_up(*f.msg, f.link);
}

// ---- Intrusion-Tolerant Reliable ----------------------------------------------

bool ItReliableEndpoint::handle_full_queue(Queue&, Message) {
  // "It stops accepting new messages for that flow, creating backpressure."
  ++stats_.rejected_full;
  return false;
}

bool ItReliableEndpoint::send(Message msg) { return enqueue(std::move(msg)); }

void ItReliableEndpoint::transmit(Message m) {
  const std::uint64_t seq = next_seq_++;
  in_flight_.put(seq, InFlight{m, ctx_.simulator().now()});

  LinkFrame f = frame(FrameType::kData);
  f.seq = seq;
  f.msg = std::move(m);
  ctx_.send_frame(std::move(f));
  ++stats_.data_sent;
  arm_retransmit_timer();
}

bool ItReliableEndpoint::eligible(std::uint64_t key) const {
  const auto it = paused_flows_.find(key);
  return it == paused_flows_.end() || it->second <= ctx_.simulator().now();
}

void ItReliableEndpoint::arm_retransmit_timer() {
  if (timers_.pending(retransmit_timer_) || in_flight_.empty()) return;
  const sim::Duration rto = std::max(kMinRto, ctx_.rtt_estimate() * kRtoMultiplier);
  retransmit_timer_ = timers_.schedule(rto, [this]() { on_retransmit_timer(); });
}

void ItReliableEndpoint::on_retransmit_timer() {
  const sim::TimePoint now = ctx_.simulator().now();
  const sim::Duration rto = std::max(kMinRto, ctx_.rtt_estimate() * kRtoMultiplier);
  for (auto [seq, fl] : in_flight_) {
    if (now - fl.last_sent < rto) continue;
    if (!eligible(key_of(fl.msg))) continue;  // flow backpressured: wait
    fl.last_sent = now;
    LinkFrame f = frame(FrameType::kRetransmission);
    f.seq = seq;
    f.msg = fl.msg;
    ctx_.send_frame(std::move(f));
    ++stats_.retransmissions;
  }
  arm_retransmit_timer();
}

void ItReliableEndpoint::on_frame(const LinkFrame& f) {
  switch (f.type) {
    case FrameType::kData:
    case FrameType::kRetransmission: {
      if (!f.msg) return;
      const std::uint64_t seq = f.seq;
      const bool already = seq <= recv_cum_ || recv_ooo_.contains(seq);
      bool admitted = already;
      if (!already) {
        admitted = ctx_.deliver_up(*f.msg, f.link);
      }
      if (admitted && !already) {
        if (seq == recv_cum_ + 1) {
          ++recv_cum_;
          while (!recv_ooo_.empty() && *recv_ooo_.begin() == recv_cum_ + 1) {
            recv_ooo_.erase(recv_ooo_.begin());
            ++recv_cum_;
          }
        } else {
          recv_ooo_.insert(seq);
        }
      }
      // kBusy when the downstream buffer is full: the peer pauses this flow
      // and retries.
      LinkFrame reply = frame(admitted ? FrameType::kAck : FrameType::kBusy);
      reply.seq = seq;
      ctx_.send_frame(std::move(reply));
      break;
    }
    case FrameType::kAck: {
      in_flight_.erase(f.seq);
      if (in_flight_.empty()) timers_.cancel(retransmit_timer_);
      break;
    }
    case FrameType::kBusy: {
      if (const InFlight* fl = in_flight_.find(f.seq)) {
        const sim::Duration backoff = ctx_.rtt_estimate() * 4;
        paused_flows_[key_of(fl->msg)] = ctx_.simulator().now() + backoff;
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace son::overlay
