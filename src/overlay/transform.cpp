#include "overlay/transform.hpp"

namespace son::overlay {

FlowTransformer::FlowTransformer(sim::Simulator& sim, OverlayNode& node, Options opts,
                                 TransformFn fn)
    : timers_{sim}, opts_{opts}, fn_{std::move(fn)}, endpoint_{node.connect(opts.in_port)} {
  if (opts_.in_group != 0) endpoint_.join(opts_.in_group);
  endpoint_.set_handler(
      [this](const Message& m, sim::Duration) { on_input(m); });
}

void FlowTransformer::on_input(const Message& m) {
  ++stats_.consumed;
  // The transformation runs on the node's general-purpose CPU; output is
  // republished as a NEW flow after the processing time. End-to-end
  // guarantees "must be met throughout the entire compound flow, including
  // its transformation" — downstream consumers see the sum of both legs'
  // latency plus the processing time.
  Payload out = fn_(m);
  if (!out) {
    ++stats_.filtered;
    return;
  }
  timers_.schedule(opts_.processing, [this, out = std::move(out), t0 = m.hdr.origin_time]() {
    endpoint_.send_with_origin(opts_.out, out, opts_.out_spec, t0);
    ++stats_.produced;
  });
}

}  // namespace son::overlay
