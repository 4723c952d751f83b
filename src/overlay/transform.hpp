// Compound flows (§V-C): in-network processing and transformation.
//
// "The unlimited programmability enabled through the use of general-purpose
// computers as overlay nodes opens up new possibilities for sophisticated
// in-network processing and transformation of flows... an initial use being
// developed today is for video transcoding in the cloud."
//
// A FlowTransformer is a service client attached to an overlay node: it
// consumes an input flow (a unicast port or a group it joins), applies a
// user-supplied transformation with a configurable processing time, and
// republishes the result as a new flow. Facilities typically join an anycast
// group so sources reach the nearest one, and "network conditions and
// failures may lead to rerouting that can include the selection of a
// transcoding facility at a different location."
#pragma once

#include <functional>

#include "overlay/node.hpp"
#include "sim/timers.hpp"

namespace son::overlay {

class FlowTransformer {
 public:
  /// Transformation applied to every input message's payload. Returning a
  /// null Payload drops the message (filtering).
  using TransformFn = std::function<Payload(const Message&)>;

  struct Options {
    /// Virtual port the facility listens on.
    VirtualPort in_port = 0;
    /// If nonzero, the facility joins this group (anycast/multicast input).
    GroupId in_group = 0;
    /// Where transformed output goes and with which services.
    Destination out;
    ServiceSpec out_spec;
    /// Per-message processing time (e.g. transcoding latency).
    sim::Duration processing = sim::Duration::milliseconds(5);
  };

  FlowTransformer(sim::Simulator& sim, OverlayNode& node, Options opts, TransformFn fn);

  struct Stats {
    std::uint64_t consumed = 0;
    std::uint64_t produced = 0;
    std::uint64_t filtered = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] NodeId node() const { return endpoint_.node(); }

 private:
  void on_input(const Message& m);

  sim::Timers timers_;  // in-flight republishes; cancelled with the transformer
  Options opts_;
  TransformFn fn_;
  ClientEndpoint& endpoint_;
  Stats stats_;
};

}  // namespace son::overlay
