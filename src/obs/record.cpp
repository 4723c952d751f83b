#include "obs/record.hpp"

namespace son::obs {

const char* to_string(Category c) {
  switch (c) {
    case Category::kDrop: return "drop";
    case Category::kLink: return "link";
    case Category::kRoute: return "route";
    case Category::kPath: return "path";
    case Category::kMark: return "mark";
    case Category::kCount_: break;
  }
  return "unknown";
}

const char* to_string(HopKind k) {
  switch (k) {
    case HopKind::kOrigin: return "origin";
    case HopKind::kForward: return "forward";
    case HopKind::kDeliver: return "deliver";
    case HopKind::kDropTtl: return "drop_ttl";
    case HopKind::kDropNoRoute: return "drop_no_route";
    case HopKind::kDropDedup: return "drop_dedup";
    case HopKind::kDropCompromised: return "drop_compromised";
    case HopKind::kDropProtocol: return "drop_protocol";
  }
  return "unknown";
}

const char* to_string(LinkEvent e) {
  switch (e) {
    case LinkEvent::kRetransmit: return "retransmit";
    case LinkEvent::kNackBatch: return "nack_batch";
    case LinkEvent::kFailover: return "failover";
    case LinkEvent::kRtoBackoff: return "rto_backoff";
    case LinkEvent::kPeerRestart: return "peer_restart";
  }
  return "unknown";
}

const char* to_string(RouteEvent e) {
  switch (e) {
    case RouteEvent::kNoRoute: return "no_route";
    case RouteEvent::kTtlExpired: return "ttl_expired";
    case RouteEvent::kOriginEvicted: return "origin_evicted";
  }
  return "unknown";
}

}  // namespace son::obs
