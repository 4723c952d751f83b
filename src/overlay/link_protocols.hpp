// Link-level protocol plug-in interface (the boxes on the link level of
// Fig. 2). One endpoint instance exists per (overlay node, adjacent link,
// protocol); it plays both the sender and receiver role for that link.
//
// "Another key feature of the software architecture is its flexible design
// that allows many different routing-level and link-level protocols to
// coexist and facilitates adding new protocols at both levels." — adding a
// protocol means implementing LinkProtocolEndpoint and registering it in
// make_link_endpoint().
#pragma once

#include <memory>

#include "overlay/frame.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timers.hpp"

namespace son::overlay {

/// What a protocol endpoint may do to the node that hosts it.
class LinkContext {
 public:
  virtual ~LinkContext() = default;

  virtual sim::Simulator& simulator() = 0;
  virtual sim::Rng& rng() = 0;
  /// Transmits a frame to the link's peer over the underlay (the node picks
  /// the healthiest ISP channel and, in authenticated deployments, tags the
  /// frame). Fire-and-forget; loss is the protocol's problem — that is the
  /// point of link protocols.
  virtual void send_frame(LinkFrame frame) = 0;
  /// Hands a received message up to the routing level of this node. Returns
  /// false if the node could NOT admit the message (next-hop buffer full) —
  /// IT-Reliable uses this to withhold the ack and create backpressure;
  /// other protocols may ignore the result.
  virtual bool deliver_up(Message msg, LinkBit arrived_on) = 0;
  /// Smoothed RTT of this overlay link from the hello protocol.
  [[nodiscard]] virtual sim::Duration rtt_estimate() const = 0;
  [[nodiscard]] virtual NodeId self() const = 0;
  [[nodiscard]] virtual NodeId peer() const = 0;
  [[nodiscard]] virtual LinkBit link() const = 0;
  /// Protocol-level drop accounting (buffer overflow, deadline exceeded...).
  virtual void count_protocol_drop(LinkProtocol proto) = 0;
};

// Fixed link-protocol timing. Reliable link:
inline constexpr double kRtoMultiplier = 2.0;  // RTO = multiplier * SRTT
inline constexpr sim::Duration kMinRto = sim::Duration::milliseconds(5);
/// Per-entry exponential-backoff ceiling: an unacked message doubles its
/// RTO on every timer expiry up to this cap, so a dead peer is probed at a
/// bounded rate instead of retransmitted at a constant rate forever.
inline constexpr sim::Duration kMaxRto = sim::Duration::seconds(2);
inline constexpr sim::Duration kAckDelay = sim::Duration::milliseconds(2);
/// Cap on explicit nacks carried per ack frame. A large reordering gap
/// would otherwise enumerate the whole window into one frame; lower seqs
/// are nacked first, and later acks cover the rest as the gap shrinks.
inline constexpr std::size_t kMaxNacksPerAck = 64;
// Realtime protocols.
inline constexpr sim::Duration kRtSenderHistory = sim::Duration::milliseconds(2000);
inline constexpr sim::Duration kRtDefaultBudget = sim::Duration::milliseconds(100);

struct LinkProtocolConfig {
  // Reliable link.
  std::size_t reliable_window = 4096;      // max unacked messages buffered
  /// The paper's design: "intermediate nodes are permitted to forward
  /// packets out of order" (§III-A). false = hold out-of-order arrivals at
  /// every hop until the gap fills (TCP-splice-like); ablation knob showing
  /// how much out-of-order forwarding smooths delivery.
  bool reliable_ooo_forwarding = true;

  // Realtime protocols.
  /// Space the N requests / M retransmissions across the budget (the NM-
  /// Strikes design). false = send them back-to-back; ablation knob showing
  /// why spacing matters under correlated loss.
  bool nm_spread = true;

  // Intrusion-tolerant protocols.
  std::size_t it_buffer_per_source = 64;   // messages
  std::size_t it_buffer_per_flow = 64;
  /// Egress pacing rate for IT scheduling, messages/second per link. This is
  /// the resource the fair scheduler divides among sources.
  double it_egress_msgs_per_sec = 5000;

  // FEC extension protocol: one parity frame per this many data frames.
  std::uint64_t fec_group_size = 4;
};

class LinkProtocolEndpoint {
 public:
  explicit LinkProtocolEndpoint(LinkContext& ctx, const LinkProtocolConfig& cfg)
      : ctx_{ctx}, cfg_{cfg}, timers_{ctx.simulator()} {}
  virtual ~LinkProtocolEndpoint() = default;
  LinkProtocolEndpoint(const LinkProtocolEndpoint&) = delete;
  LinkProtocolEndpoint& operator=(const LinkProtocolEndpoint&) = delete;

  /// Routing level asks this link to carry `msg` to the peer.
  virtual bool send(Message msg) = 0;
  /// A frame for this protocol arrived from the peer (in authenticated
  /// deployments the node has already checked its tag and incarnation).
  virtual void on_frame(const LinkFrame& f) = 0;
  [[nodiscard]] virtual LinkProtocol protocol() const = 0;

 protected:
  /// A frame of this protocol to the link's peer, header filled in.
  [[nodiscard]] LinkFrame frame(FrameType type) const {
    LinkFrame f;
    f.link = ctx_.link();
    f.from = ctx_.self();
    f.to = ctx_.peer();
    f.proto = protocol();
    f.type = type;
    return f;
  }

  LinkContext& ctx_;
  LinkProtocolConfig cfg_;
  /// Every timer of the endpoint; a reset endpoint cancels them all.
  sim::Timers timers_;
};

/// Factory covering every protocol in Fig. 2.
[[nodiscard]] std::unique_ptr<LinkProtocolEndpoint> make_link_endpoint(
    LinkProtocol proto, LinkContext& ctx, const LinkProtocolConfig& cfg);

}  // namespace son::overlay
