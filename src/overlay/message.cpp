#include "overlay/message.hpp"

#include <cassert>

#include "overlay/frame.hpp"
#include "overlay/group_state.hpp"
#include "overlay/link_state.hpp"

namespace son::overlay {

Payload make_payload(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

Payload make_payload(std::size_t size, std::uint8_t fill) {
  return std::make_shared<const std::vector<std::uint8_t>>(size, fill);
}

namespace {
/// The one field writer of every authenticated layout: `v` little-endian at
/// out[at], advancing `at`.
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

std::size_t control_auth_head_bytes(const LinkFrame& f, std::span<std::uint8_t> out) {
  assert(out.size() >= kControlAuthHeadBytes);
  std::size_t at = 0;
  std::uint8_t* p = out.data();
  put(p, at, static_cast<std::uint8_t>(f.type));
  put(p, at, f.link);
  put(p, at, f.from);
  put(p, at, f.to);
  put(p, at, f.hello_seq);
  put(p, at, f.t_sent.ns());
  put(p, at, f.channel);
  put(p, at, f.incarnation);
  return at;  // == kControlAuthHeadBytes
}

void control_auth_suffix_into(const LinkFrame& f, std::vector<std::uint8_t>& out) {
  // origin, seq, incarnation, then one fixed-width record per link or group;
  // hellos carry no advertisement body.
  constexpr std::size_t kAdHead = sizeof(NodeId) + sizeof(std::uint64_t) + sizeof(std::uint32_t);
  constexpr std::size_t kLinkRecord = sizeof(LinkBit) + 1 + 2 * sizeof(std::uint64_t);
  const auto* lsa = f.control.get<LinkStateAd>();
  const auto* gsa = lsa == nullptr ? f.control.get<GroupStateAd>() : nullptr;
  const std::size_t size = lsa != nullptr ? kAdHead + lsa->links.size() * kLinkRecord
                           : gsa != nullptr ? kAdHead + gsa->joined.size() * sizeof(GroupId)
                                            : 0;
  // son-analyze: allow(hot-path-alloc) "sized once per frame into caller scratch whose capacity only grows; steady state after the first few control frames is allocation-free"
  out.resize(size);
  std::uint8_t* p = out.data();
  std::size_t at = 0;
  if (lsa != nullptr) {
    put(p, at, lsa->origin);
    put(p, at, lsa->seq);
    put(p, at, lsa->incarnation);
    for (const LinkReport& r : lsa->links) {
      put(p, at, r.link);
      put(p, at, static_cast<std::uint8_t>(r.up));
      put(p, at, static_cast<std::uint64_t>(r.latency_ms * 1e6));
      put(p, at, static_cast<std::uint64_t>(r.loss_rate * 1e9));
    }
  } else if (gsa != nullptr) {
    put(p, at, gsa->origin);
    put(p, at, gsa->seq);
    put(p, at, gsa->incarnation);
    for (const GroupId g : gsa->joined) put(p, at, g);
  }
  assert(at == size);
}

std::vector<std::uint8_t> control_auth_bytes(const LinkFrame& f) {
  std::vector<std::uint8_t> out(kControlAuthHeadBytes);
  control_auth_head_bytes(f, std::span{out});
  std::vector<std::uint8_t> suffix;
  control_auth_suffix_into(f, suffix);
  out.insert(out.end(), suffix.begin(), suffix.end());
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
