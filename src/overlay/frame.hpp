// Link frames: everything overlay neighbors exchange over one overlay link.
//
// Data and recovery frames belong to a link protocol instance; hello, LSA
// and group-state frames are node-level control traffic handled by the
// overlay node itself.
#pragma once

#include <any>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "overlay/message.hpp"
#include "overlay/types.hpp"
#include "sim/hot.hpp"

namespace son::overlay {

enum class FrameType : std::uint8_t {
  kData = 0,
  kAck,              // cumulative ack + nack list (reliable link)
  kRetransRequest,   // realtime protocols: request for missing seqs
  kRetransmission,   // recovered data
  kBusy,             // IT-Reliable backpressure: per-flow buffer full
  kWindowOpen,       // IT-Reliable backpressure release
  kParity,           // FEC group parity (extension protocol)
  kHello,
  kHelloReply,
  kLsa,
  kGroupState,
};

[[nodiscard]] const char* to_string(FrameType t);

struct LinkFrame {
  LinkBit link = kInvalidLinkBit;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  LinkProtocol proto = LinkProtocol::kBestEffort;
  FrameType type = FrameType::kData;

  /// Link-level sequence (data frames) or the seq being acked/requested.
  std::uint64_t seq = 0;
  std::uint64_t cum_ack = 0;
  /// Nack / retransmission-request id lists.
  std::vector<std::uint64_t> ids;
  std::optional<Message> msg;

  // Hello fields.
  sim::TimePoint t_sent;
  std::uint64_t hello_seq = 0;
  std::uint8_t channel = 0;

  /// Sender's incarnation number (bumped on crash-recovery restart). A peer
  /// seeing a higher incarnation resets all per-link protocol state for that
  /// neighbor (the pre-crash receive windows and acks are void); frames from
  /// an older incarnation are pre-crash ghosts and are dropped.
  std::uint32_t incarnation = 0;

  /// Remaining recovery-time budget hint (retransmission requests), so the
  /// responder can space its M retransmissions inside the deadline.
  sim::Duration budget = sim::Duration::zero();

  /// Control payload for kLsa / kGroupState (LinkStateAd / GroupStateAd).
  std::any control;

  // Per-hop authentication (intrusion-tolerant deployments).
  crypto::Tag auth{};
  bool authenticated = false;
};

/// Wire size used for underlay bandwidth accounting.
[[nodiscard]] std::uint32_t frame_wire_size(const LinkFrame& f);

/// Canonical byte encoding of a CONTROL frame's authenticated content
/// (hello fields, link-state / group-state advertisements). Used for
/// per-hop HMAC in intrusion-tolerant deployments so outsiders cannot
/// inject hellos or forge topology/membership state.
///
/// The encoding splits into head || suffix, HMAC'd as two spans (identical
/// to HMAC over the concatenation):
///   * head — the fixed per-link fields (type, link, from, to, hello seq,
///     timestamp, channel, incarnation), exactly kControlAuthHeadBytes,
///     encoded into a caller stack buffer.
///   * suffix — the variable advertisement body (LSA / GSA), appended into a
///     caller scratch vector whose capacity grows monotonically, so steady
///     state is allocation-free. The suffix depends only on the ad content
///     (not on which link carries it), which is what lets a K-link flood
///     serialize it once.
inline constexpr std::size_t kControlAuthHeadBytes = 27;

SON_HOT std::size_t control_auth_head_bytes(const LinkFrame& f, std::span<std::uint8_t> out);
SON_HOT void control_auth_suffix_into(const LinkFrame& f, std::vector<std::uint8_t>& out);

/// Single-buffer concatenation (head || suffix): the reference encoder the
/// tests compare against. Allocates; hot paths use the two-span form above.
[[nodiscard]] std::vector<std::uint8_t> control_auth_bytes(const LinkFrame& f);

}  // namespace son::overlay
