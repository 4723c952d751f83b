#include "client/traffic.hpp"

namespace son::client {

MeasuringSink::MeasuringSink(overlay::ClientEndpoint& client) {
  client.set_handler([this](const overlay::Message& m, sim::Duration latency) {
    if (!seen_.insert(m.hdr.origin_id).second) {
      ++duplicates_;
      return;
    }
    ++received_;
    highest_seq_ = std::max(highest_seq_, m.hdr.flow_seq);
    latencies_ms_.add(latency.to_millis_f());
    if (extra_) extra_(m, latency);
  });
}

double MeasuringSink::delivered_within(std::uint64_t sent, sim::Duration deadline) const {
  if (sent == 0) return 0.0;
  const double frac_of_received = latencies_ms_.fraction_at_most(deadline.to_millis_f());
  return frac_of_received * static_cast<double>(received_) / static_cast<double>(sent);
}

double MeasuringSink::delivery_ratio(std::uint64_t sent) const {
  if (sent == 0) return 0.0;
  return static_cast<double>(received_) / static_cast<double>(sent);
}

}  // namespace son::client
