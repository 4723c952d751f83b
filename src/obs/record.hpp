// Flight-recorder event records.
//
// One record is 32 bytes of POD: the recorder writes them into preallocated
// per-node rings, so recording never allocates and a record is just a time
// stamp plus four small operands. The category/code pair gives every record a
// stable machine-readable meaning; `a`/`b` carry the operands (message ids,
// sequence numbers, packed link/protocol/reason triples).
#pragma once

#include <cstdint>
#include <type_traits>

namespace son::obs {

/// Top-level record categories. Keep stable: recorded trace files carry the
/// numeric values, and tools/son-trace names them for humans.
enum class Category : std::uint8_t {
  kDrop = 0,   // underlay drop; code = net::DropReason, a = packet id
  kLink = 1,   // link-protocol event; code = LinkEvent, a/b per event
  kRoute = 2,  // routing-level event; code = RouteEvent
  kPath = 3,   // sampled message hop; code = HopKind, a = origin_id
  kMark = 4,   // free-form scenario marks emitted by tests/benches

  kCount_,  // sentinel — keep last
};
inline constexpr std::size_t kNumCategories = static_cast<std::size_t>(Category::kCount_);

/// Codes for Category::kLink.
enum class LinkEvent : std::uint8_t {
  kRetransmit = 0,   // a = link seq, b = send count for the entry
  kNackBatch = 1,    // a = nacks in the ack frame, b = cumulative ack
  kFailover = 2,     // a = link bit, b = new active channel
  kRtoBackoff = 3,   // a = link seq, b = new RTO in ns
  kPeerRestart = 4,  // a = link bit, b = the peer's new incarnation
};

/// Codes for Category::kRoute.
enum class RouteEvent : std::uint8_t {
  kNoRoute = 0,      // a = destination node
  kTtlExpired = 1,   // a = origin_id
  kOriginEvicted = 2,  // a = departed origin, b = router cache entries dropped
};

/// Codes for Category::kPath — one per overlay hop of a sampled message.
/// `a` is always the message's origin_id; `b` packs (link, protocol, detail)
/// via pack3(). `detail` is a per-kind extra (drop reason, etc.).
enum class HopKind : std::uint8_t {
  kOrigin = 0,       // message entered the overlay at `node`
  kForward = 1,      // egress onto overlay link `link` with `protocol`
  kDeliver = 2,      // delivered to the session level at `node`
  kDropTtl = 3,      // overlay TTL expired at `node`
  kDropNoRoute = 4,  // no next hop at `node`
  kDropDedup = 5,    // redundant copy suppressed at `node` (expected end)
  kDropCompromised = 6,  // swallowed by a compromised node
  kDropProtocol = 7,     // link protocol shed it (window/buffer full)
};

/// Packs three bytes into a record operand (link, protocol, detail).
[[nodiscard]] constexpr std::uint64_t pack3(std::uint8_t hi, std::uint8_t mid,
                                            std::uint8_t lo) {
  return (std::uint64_t{hi} << 16) | (std::uint64_t{mid} << 8) | lo;
}
[[nodiscard]] constexpr std::uint8_t unpack3_hi(std::uint64_t v) {
  return static_cast<std::uint8_t>(v >> 16);
}
[[nodiscard]] constexpr std::uint8_t unpack3_mid(std::uint64_t v) {
  return static_cast<std::uint8_t>(v >> 8);
}
[[nodiscard]] constexpr std::uint8_t unpack3_lo(std::uint64_t v) {
  return static_cast<std::uint8_t>(v);
}

/// The fixed-size POD record the rings hold and trace files carry.
struct EventRecord {
  std::int64_t t_ns = 0;       // sim time of the record
  std::uint64_t a = 0;         // first operand (category-specific)
  std::uint64_t b = 0;         // second operand (category-specific)
  std::uint16_t node = 0;      // recording node (kSystemNode for non-node code)
  std::uint8_t category = 0;   // Category
  std::uint8_t code = 0;       // per-category code enum
  std::uint32_t reserved = 0;  // padding; keeps the record 32 bytes, wire-stable
};
static_assert(std::is_trivially_copyable_v<EventRecord>);
static_assert(sizeof(EventRecord) == 32, "EventRecord is the trace-file wire format");

/// Ring index used by code that runs outside any overlay node (the underlay,
/// experiment harnesses). The recorder maps any node id >= its node count to
/// its shared system ring.
inline constexpr std::uint16_t kSystemNode = 0xFFFF;

[[nodiscard]] const char* to_string(Category c);
[[nodiscard]] const char* to_string(HopKind k);
[[nodiscard]] const char* to_string(LinkEvent e);
[[nodiscard]] const char* to_string(RouteEvent e);

}  // namespace son::obs
