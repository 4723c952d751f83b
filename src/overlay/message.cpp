#include "overlay/message.hpp"

#include <cassert>

namespace son::overlay {

Payload make_payload(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

Payload make_payload(std::size_t size, std::uint8_t fill) {
  return std::make_shared<const std::vector<std::uint8_t>>(size, fill);
}

namespace {
template <typename T>
void put(std::uint8_t* out, std::size_t& at, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[at++] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i));
  }
}
}  // namespace

std::size_t auth_head_bytes(const Message& m, std::span<std::uint8_t> out) {
  assert(out.size() >= kAuthHeadBytes);
  std::size_t at = 0;
  std::uint8_t* p = out.data();
  put(p, at, m.hdr.origin);
  put(p, at, m.hdr.src_port);
  put(p, at, static_cast<std::uint8_t>(m.hdr.dest.kind));
  put(p, at, m.hdr.dest.node);
  put(p, at, m.hdr.dest.port);
  put(p, at, m.hdr.dest.group);
  put(p, at, m.hdr.origin_id);
  put(p, at, m.hdr.flow_seq);
  put(p, at, m.hdr.flow_key);
  put(p, at, static_cast<std::uint8_t>(m.hdr.scheme));
  put(p, at, static_cast<std::uint8_t>(m.hdr.link_protocol));
  put(p, at, m.hdr.mask);
  put(p, at, m.hdr.origin_time.ns());
  put(p, at, m.hdr.deadline.ns());
  put(p, at, m.hdr.priority);
  return at;  // == kAuthHeadBytes
}

std::vector<std::uint8_t> auth_bytes(const Message& m) {
  std::vector<std::uint8_t> out(kAuthHeadBytes);
  const std::size_t n = auth_head_bytes(m, std::span{out});
  // son-analyze: allow(hot-path-alloc) "reference encoder used by tests and bench reference cells; the hot fast path streams auth_head_bytes + payload spans and never calls this"
  out.resize(n);
  // son-analyze: allow(hot-path-alloc) "reference encoder used by tests and bench reference cells; the hot fast path streams auth_head_bytes + payload spans and never calls this"
  if (m.payload) out.insert(out.end(), m.payload->begin(), m.payload->end());
  return out;
}

std::uint32_t wire_size(const Message& m, bool authenticated) {
  return kMessageHeaderBytes + static_cast<std::uint32_t>(m.payload_size()) +
         (authenticated ? kAuthTagBytes : 0);
}

const char* to_string(RouteScheme s) {
  switch (s) {
    case RouteScheme::kLinkState: return "link-state";
    case RouteScheme::kDisjointPaths: return "disjoint-paths";
    case RouteScheme::kDissemination: return "dissemination-graph";
    case RouteScheme::kFlooding: return "constrained-flooding";
  }
  return "?";
}

const char* to_string(LinkProtocol p) {
  switch (p) {
    case LinkProtocol::kBestEffort: return "best-effort";
    case LinkProtocol::kReliable: return "reliable";
    case LinkProtocol::kRealtimeSimple: return "realtime-simple";
    case LinkProtocol::kRealtimeNM: return "realtime-nm";
    case LinkProtocol::kITPriority: return "it-priority";
    case LinkProtocol::kITReliable: return "it-reliable";
    case LinkProtocol::kFec: return "fec";
  }
  return "?";
}

}  // namespace son::overlay
