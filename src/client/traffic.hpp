// Client-side measurement sink used by the example applications and every
// benchmark harness; the traffic source is client::FlowEngine.
#pragma once

#include <functional>
#include <unordered_set>

#include "overlay/node.hpp"
#include "sim/stats.hpp"

namespace son::client {

/// Receiver that records per-message one-way latency and, given the sender's
/// flow sequence numbers, detects gaps/duplicates.
class MeasuringSink {
 public:
  explicit MeasuringSink(overlay::ClientEndpoint& client);

  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] const sim::SampleSet& latencies_ms() const { return latencies_ms_; }
  [[nodiscard]] std::uint64_t highest_seq() const { return highest_seq_; }

  /// Fraction of messages (out of `sent`) delivered within `deadline`.
  [[nodiscard]] double delivered_within(std::uint64_t sent, sim::Duration deadline) const;
  /// Delivery ratio out of `sent`.
  [[nodiscard]] double delivery_ratio(std::uint64_t sent) const;

  /// Optional extra callback per delivery.
  void on_message(std::function<void(const overlay::Message&, sim::Duration)> fn) {
    extra_ = std::move(fn);
  }

 private:
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t highest_seq_ = 0;
  std::unordered_set<std::uint64_t> seen_;
  sim::SampleSet latencies_ms_;
  std::function<void(const overlay::Message&, sim::Duration)> extra_;
};

}  // namespace son::client
