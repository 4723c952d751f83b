// The overlay message: what flows between overlay nodes on behalf of client
// flows. Payload bodies are shared immutable buffers so redundant
// dissemination (multiple copies in flight) stays cheap to simulate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "overlay/types.hpp"
#include "sim/hot.hpp"
#include "sim/time.hpp"

namespace son::overlay {

using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

[[nodiscard]] Payload make_payload(std::vector<std::uint8_t> bytes);
[[nodiscard]] Payload make_payload(std::size_t size, std::uint8_t fill = 0xAB);

struct MessageHeader {
  NodeId origin = kInvalidNode;          // overlay node that introduced the message
  VirtualPort src_port = 0;              // originating client's virtual port
  Destination dest;
  /// Unique message id:
  ///   (origin << 48) | ((incarnation & 0xFF) << 40) | per-origin counter.
  /// Dedup key for redundant dissemination. Folding the origin's incarnation
  /// into the id makes dedup and receive windows implicitly
  /// (origin, incarnation)-keyed, so a recovered node's fresh counter never
  /// collides with its previous life's ids. Incarnation 0 reproduces the
  /// original (origin << 48) | counter layout bit-for-bit.
  std::uint64_t origin_id = 0;
  /// Per-flow sequence number at the origin (gap detection, reordering).
  std::uint64_t flow_seq = 0;
  /// Flow identity at the origin (origin + src_port + dest hash); stable for
  /// per-flow state like IT-Reliable buffers.
  std::uint64_t flow_key = 0;
  RouteScheme scheme = RouteScheme::kLinkState;
  LinkProtocol link_protocol = LinkProtocol::kBestEffort;
  /// Remaining links to traverse, for source-based routing.
  LinkMask mask = 0;
  sim::TimePoint origin_time;
  sim::Duration deadline = sim::Duration::zero();
  std::uint8_t priority = 5;
  std::uint8_t nm_requests = 3;
  std::uint8_t nm_retransmissions = 3;
  bool ordered = false;
  /// Overlay hops already traversed; bounds transient routing loops while
  /// link-state views converge (overlay TTL).
  std::uint8_t hops = 0;
  /// Scheduling identity of the traffic source behind this message (the
  /// FlowEngine flow tag; 0 for plain client sends). Fair queueing keys on
  /// (origin, source_tag) so one aggressive flow cannot starve other flows
  /// from the same origin. Like nm_*/ordered/hops, this is transport
  /// metadata outside the authenticated head.
  std::uint32_t source_tag = 0;
};

struct Message {
  MessageHeader hdr;
  Payload payload;

  [[nodiscard]] std::size_t payload_size() const { return payload ? payload->size() : 0; }
};

/// Exact size of the authenticated header encoding (auth_head_bytes): the
/// fixed-width fields below sum to one SHA-256 block.
inline constexpr std::size_t kAuthHeadBytes = 64;

/// Canonical byte encoding of the authenticated HEADER portion of a message
/// (fields that must not be forged; the payload is the second span of the
/// HMAC input). Encodes exactly kAuthHeadBytes into `out` (which must be at
/// least that large) and returns the size. Zero-allocation: the IT fast path
/// encodes into a stack buffer and streams the shared payload buffer behind
/// it, which is bit-identical to HMAC over auth_bytes() since HMAC input is
/// the concatenation of its spans. The source-routing mask is covered too:
/// it is stamped once by the origin and never rewritten in flight.
SON_HOT std::size_t auth_head_bytes(const Message& m, std::span<std::uint8_t> out);

/// Heap-allocating head+payload concatenation: the reference encoder the
/// tests and bench reference cells compare the streamed spans against.
[[nodiscard]] std::vector<std::uint8_t> auth_bytes(const Message& m);

/// Wire size estimate for underlay queueing/bandwidth purposes.
inline constexpr std::uint32_t kMessageHeaderBytes = 64;
inline constexpr std::uint32_t kAuthTagBytes = 16;
inline constexpr std::uint32_t kLinkFrameBytes = 24;

[[nodiscard]] std::uint32_t wire_size(const Message& m, bool authenticated);

}  // namespace son::overlay
