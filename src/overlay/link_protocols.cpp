#include "overlay/link_protocols.hpp"

#include "overlay/fec.hpp"
#include "overlay/it_fair.hpp"
#include "overlay/realtime.hpp"
#include "overlay/reliable_link.hpp"

namespace son::overlay {

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
