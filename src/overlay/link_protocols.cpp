#include "overlay/link_protocols.hpp"

#include "overlay/fec.hpp"
#include "overlay/group_state.hpp"
#include "overlay/it_fair.hpp"
#include "overlay/link_state.hpp"
#include "overlay/realtime.hpp"
#include "overlay/reliable_link.hpp"

namespace son::overlay {

namespace {
template <typename T>
void put_raw(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    // son-analyze: allow(hot-path-alloc) "appends into caller scratch with monotone capacity (control_auth_suffix_into contract); steady state after the first few control frames is allocation-free"
    out.push_back(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i)));
  }
}
template <typename T>
void put_fixed(std::uint8_t* out, std::size_t& at, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[at++] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i));
  }
}
}  // namespace

std::size_t control_auth_head_bytes(const LinkFrame& f, std::span<std::uint8_t> out) {
  std::size_t at = 0;
  std::uint8_t* p = out.data();
  put_fixed(p, at, static_cast<std::uint8_t>(f.type));
  put_fixed(p, at, f.link);
  put_fixed(p, at, f.from);
  put_fixed(p, at, f.to);
  put_fixed(p, at, f.hello_seq);
  put_fixed(p, at, f.t_sent.ns());
  put_fixed(p, at, f.channel);
  put_fixed(p, at, f.incarnation);
  return at;  // == kControlAuthHeadBytes
}

void control_auth_suffix_into(const LinkFrame& f, std::vector<std::uint8_t>& out) {
  out.clear();
  if (const auto* lsa = f.control.get<LinkStateAd>()) {
    put_raw(out, lsa->origin);
    put_raw(out, lsa->seq);
    put_raw(out, lsa->incarnation);
    for (const LinkReport& r : lsa->links) {
      put_raw(out, r.link);
      put_raw(out, static_cast<std::uint8_t>(r.up));
      put_raw(out, static_cast<std::uint64_t>(r.latency_ms * 1e6));
      put_raw(out, static_cast<std::uint64_t>(r.loss_rate * 1e9));
    }
  } else if (const auto* gsa = f.control.get<GroupStateAd>()) {
    put_raw(out, gsa->origin);
    put_raw(out, gsa->seq);
    put_raw(out, gsa->incarnation);
    for (const GroupId g : gsa->joined) put_raw(out, g);
  }
}

std::vector<std::uint8_t> control_auth_bytes(const LinkFrame& f) {
  std::array<std::uint8_t, kControlAuthHeadBytes> head{};
  const std::size_t n = control_auth_head_bytes(f, std::span{head});
  std::vector<std::uint8_t> suffix;
  control_auth_suffix_into(f, suffix);
  std::vector<std::uint8_t> out;
  out.reserve(n + suffix.size());
  out.insert(out.end(), head.begin(), head.begin() + static_cast<std::ptrdiff_t>(n));
  out.insert(out.end(), suffix.begin(), suffix.end());
  return out;
}

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kData: return "data";
    case FrameType::kAck: return "ack";
    case FrameType::kRetransRequest: return "retrans-request";
    case FrameType::kRetransmission: return "retransmission";
    case FrameType::kParity: return "parity";
    case FrameType::kBusy: return "busy";
    case FrameType::kWindowOpen: return "window-open";
    case FrameType::kHello: return "hello";
    case FrameType::kHelloReply: return "hello-reply";
    case FrameType::kLsa: return "lsa";
    case FrameType::kGroupState: return "group-state";
  }
  return "?";
}

std::uint32_t frame_wire_size(const LinkFrame& f) {
  std::uint32_t size = kLinkFrameBytes;
  if (f.msg) size += wire_size(*f.msg, f.authenticated);
  size += static_cast<std::uint32_t>(f.ids.size()) * 8;
  if (f.type == FrameType::kLsa || f.type == FrameType::kGroupState) {
    size += 64;  // control advertisement payload estimate
  }
  if (f.type == FrameType::kParity) {
    if (const auto* block = f.control.get<ParityBlock>()) {
      size += static_cast<std::uint32_t>(block->xor_bytes.size()) +
              static_cast<std::uint32_t>(block->headers.size()) * 24;
    }
  }
  return size;
}

std::unique_ptr<LinkProtocolEndpoint> make_link_endpoint(LinkProtocol proto, LinkContext& ctx,
                                                         const LinkProtocolConfig& cfg) {
  switch (proto) {
    case LinkProtocol::kBestEffort:
      return std::make_unique<BestEffortEndpoint>(ctx, cfg);
    case LinkProtocol::kReliable:
      return std::make_unique<ReliableLinkEndpoint>(ctx, cfg);
    case LinkProtocol::kRealtimeSimple:
      return std::make_unique<RealtimeSimpleEndpoint>(ctx, cfg);
    case LinkProtocol::kRealtimeNM:
      return std::make_unique<RealtimeNMEndpoint>(ctx, cfg);
    case LinkProtocol::kITPriority:
      return std::make_unique<ItPriorityEndpoint>(ctx, cfg);
    case LinkProtocol::kITReliable:
      return std::make_unique<ItReliableEndpoint>(ctx, cfg);
    case LinkProtocol::kFec:
      return std::make_unique<FecEndpoint>(ctx, cfg);
  }
  return nullptr;
}

}  // namespace son::overlay
