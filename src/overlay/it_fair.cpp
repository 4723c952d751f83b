#include "overlay/it_fair.hpp"

#include <algorithm>
#include <array>

namespace son::overlay {

// ---- Shared base -------------------------------------------------------------

namespace {
std::span<const std::uint8_t> payload_span(const Message& m) {
  if (!m.payload) return {};
  return std::span<const std::uint8_t>{m.payload->data(), m.payload->size()};
}
}  // namespace

ItEndpointBase::~ItEndpointBase() { ctx_.simulator().cancel(pump_timer_); }

sim::Duration ItEndpointBase::pump_interval() const {
  return sim::Duration::from_seconds_f(1.0 / cfg_.it_egress_msgs_per_sec);
}

const crypto::MacContext& ItEndpointBase::link_mac() {
  if (!mac_.valid()) mac_ = ctx_.keys()->context(ctx_.peer());
  return mac_;
}

void ItEndpointBase::sign_frame(LinkFrame& f) {
  if (!ctx_.authenticate() || ctx_.keys() == nullptr || !f.msg) return;
  obs_sign_ops_.add();
  std::array<std::uint8_t, kAuthHeadBytes> head;
  const std::size_t n = auth_head_bytes(*f.msg, std::span{head});
  f.auth = link_mac().sign(std::span<const std::uint8_t>{head.data(), n},
                           payload_span(*f.msg));
  f.authenticated = true;
}

bool ItEndpointBase::verify_frame(const LinkFrame& f) {
  if (!ctx_.authenticate() || ctx_.keys() == nullptr) return true;
  if (!f.msg) return true;  // control frames carry no authenticated body here
  if (!f.authenticated) {
    ++stats_.auth_failures;
    return false;
  }
  obs_verify_ops_.add();
  std::array<std::uint8_t, kAuthHeadBytes> head;
  const std::size_t n = auth_head_bytes(*f.msg, std::span{head});
  const std::span<const std::uint8_t> head_sp{head.data(), n};
  // Frames on a point-to-point link come from the peer; the cached link
  // context holds exactly that pairwise key.
  const bool ok = (f.from == ctx_.peer())
                      ? link_mac().verify(head_sp, payload_span(*f.msg), f.auth)
                      : ctx_.keys()->verify(f.from, head_sp, payload_span(*f.msg), f.auth);
  if (!ok) ++stats_.auth_failures;
  return ok;
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
  if (pump_timer_ != sim::kInvalidEventId) return;
  pump_timer_ = ctx_.simulator().schedule(pump_interval(), [this]() {
    pump_timer_ = sim::kInvalidEventId;
    pump();
  });
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
  LinkFrame f;
  f.link = ctx_.link();
  f.from = ctx_.self();
  f.to = ctx_.peer();
  f.proto = LinkProtocol::kITPriority;
  f.type = FrameType::kData;
  f.seq = ++stats_.data_sent;
  f.msg = std::move(m);
  sign_frame(f);
  ctx_.send_frame(std::move(f));
}

void ItPriorityEndpoint::on_frame(const LinkFrame& f) {
  if (f.type != FrameType::kData || !f.msg) return;
  if (!verify_frame(f)) return;
  ctx_.deliver_up(*f.msg, f.link);
}

// ---- Intrusion-Tolerant Reliable ----------------------------------------------

ItReliableEndpoint::~ItReliableEndpoint() { ctx_.simulator().cancel(retransmit_timer_); }

bool ItReliableEndpoint::handle_full_queue(Queue&, Message) {
  // "It stops accepting new messages for that flow, creating backpressure."
  ++stats_.rejected_full;
  return false;
}

bool ItReliableEndpoint::send(Message msg) { return enqueue(std::move(msg)); }

void ItReliableEndpoint::transmit(Message m) {
  const std::uint64_t seq = next_seq_++;
  in_flight_.emplace(seq, InFlight{m, ctx_.simulator().now()});

  LinkFrame f;
  f.link = ctx_.link();
  f.from = ctx_.self();
  f.to = ctx_.peer();
  f.proto = LinkProtocol::kITReliable;
  f.type = FrameType::kData;
  f.seq = seq;
  f.msg = std::move(m);
  sign_frame(f);
  ctx_.send_frame(std::move(f));
  ++stats_.data_sent;
  arm_retransmit_timer();
}

bool ItReliableEndpoint::eligible(std::uint64_t key) const {
  const auto it = paused_flows_.find(key);
  return it == paused_flows_.end() || it->second <= ctx_.simulator().now();
}

void ItReliableEndpoint::arm_retransmit_timer() {
  if (retransmit_timer_ != sim::kInvalidEventId || in_flight_.empty()) return;
  const sim::Duration rto =
      std::max(cfg_.min_rto, ctx_.rtt_estimate() * cfg_.rto_multiplier);
  retransmit_timer_ = ctx_.simulator().schedule(rto, [this]() {
    retransmit_timer_ = sim::kInvalidEventId;
    on_retransmit_timer();
  });
}

void ItReliableEndpoint::on_retransmit_timer() {
  const sim::TimePoint now = ctx_.simulator().now();
  const sim::Duration rto =
      std::max(cfg_.min_rto, ctx_.rtt_estimate() * cfg_.rto_multiplier);
  for (auto& [seq, fl] : in_flight_) {
    if (now - fl.last_sent < rto) continue;
    if (!eligible(key_of(fl.msg))) continue;  // flow backpressured: wait
    fl.last_sent = now;
    LinkFrame f;
    f.link = ctx_.link();
    f.from = ctx_.self();
    f.to = ctx_.peer();
    f.proto = LinkProtocol::kITReliable;
    f.type = FrameType::kRetransmission;
    f.seq = seq;
    f.msg = fl.msg;
    sign_frame(f);
    ctx_.send_frame(std::move(f));
    ++stats_.retransmissions;
  }
  arm_retransmit_timer();
}

void ItReliableEndpoint::on_frame(const LinkFrame& f) {
  switch (f.type) {
    case FrameType::kData:
    case FrameType::kRetransmission: {
      if (!f.msg || !verify_frame(f)) return;
      const std::uint64_t seq = f.seq;
      const bool already = seq <= recv_cum_ || recv_ooo_.contains(seq);
      bool admitted = already;
      if (!already) {
        admitted = ctx_.deliver_up(*f.msg, f.link);
      }
      LinkFrame reply;
      reply.link = ctx_.link();
      reply.from = ctx_.self();
      reply.to = ctx_.peer();
      reply.proto = LinkProtocol::kITReliable;
      if (admitted) {
        if (!already) {
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
        reply.type = FrameType::kAck;
        reply.seq = seq;
      } else {
        // Downstream buffer full: refuse, peer pauses this flow and retries.
        reply.type = FrameType::kBusy;
        reply.seq = seq;
      }
      ctx_.send_frame(std::move(reply));
      break;
    }
    case FrameType::kAck: {
      in_flight_.erase(f.seq);
      if (in_flight_.empty() && retransmit_timer_ != sim::kInvalidEventId) {
        ctx_.simulator().cancel(retransmit_timer_);
        retransmit_timer_ = sim::kInvalidEventId;
      }
      break;
    }
    case FrameType::kBusy: {
      const auto it = in_flight_.find(f.seq);
      if (it != in_flight_.end()) {
        const sim::Duration backoff = ctx_.rtt_estimate() * 4;
        paused_flows_[key_of(it->second.msg)] = ctx_.simulator().now() + backoff;
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace son::overlay
