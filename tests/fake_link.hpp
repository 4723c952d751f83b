// Test harness: two LinkProtocolEndpoints joined by a configurable lossy,
// delayed pipe — protocol logic is exercised without a full overlay node.
#pragma once

#include <functional>
#include <vector>

#include "net/loss_model.hpp"
#include "overlay/link_protocols.hpp"
#include "sim/simulator.hpp"

namespace son::test {

class FakeLinkPair {
 public:
  class Side final : public overlay::LinkContext {
   public:
    Side(FakeLinkPair& pair, overlay::NodeId self, overlay::NodeId peer)
        : pair_{pair}, self_{self}, peer_{peer} {}

    sim::Simulator& simulator() override { return pair_.sim_; }
    sim::Rng& rng() override { return pair_.rng_; }
    void send_frame(overlay::LinkFrame frame) override { pair_.transmit(self_, std::move(frame)); }
    bool deliver_up(overlay::Message msg, overlay::LinkBit) override {
      if (!admit || admit(msg)) {
        delivered.push_back(std::move(msg));
        return true;
      }
      ++refused;
      return false;
    }
    [[nodiscard]] sim::Duration rtt_estimate() const override { return pair_.one_way_ * 2; }
    [[nodiscard]] overlay::NodeId self() const override { return self_; }
    [[nodiscard]] overlay::NodeId peer() const override { return peer_; }
    [[nodiscard]] overlay::LinkBit link() const override { return 0; }
    void count_protocol_drop(overlay::LinkProtocol) override { ++protocol_drops; }

    std::vector<overlay::Message> delivered;
    std::function<bool(const overlay::Message&)> admit;  // nullptr = admit all
    std::uint64_t refused = 0;
    std::uint64_t protocol_drops = 0;

   private:
    FakeLinkPair& pair_;
    overlay::NodeId self_;
    overlay::NodeId peer_;
  };

  FakeLinkPair(sim::Simulator& sim, sim::Duration one_way, double loss,
               std::uint64_t seed = 99)
      : sim_{sim},
        rng_{seed},
        one_way_{one_way},
        loss_a_to_b_{net::make_bernoulli(loss)},
        loss_b_to_a_{net::make_bernoulli(loss)},
        a_{*this, 0, 1},
        b_{*this, 1, 0} {}

  /// Install the endpoints after constructing them against ctx_a()/ctx_b().
  void attach(overlay::LinkProtocolEndpoint* end_a, overlay::LinkProtocolEndpoint* end_b) {
    end_a_ = end_a;
    end_b_ = end_b;
  }

  Side& ctx_a() { return a_; }
  Side& ctx_b() { return b_; }

  void set_loss_a_to_b(std::unique_ptr<net::LossModel> m) { loss_a_to_b_ = std::move(m); }
  void set_loss_b_to_a(std::unique_ptr<net::LossModel> m) { loss_b_to_a_ = std::move(m); }

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_lost() const { return frames_lost_; }
  [[nodiscard]] std::uint64_t data_frames_sent() const { return data_frames_sent_; }

 private:
  void transmit(overlay::NodeId from, overlay::LinkFrame f) {
    ++frames_sent_;
    if (f.type == overlay::FrameType::kData ||
        f.type == overlay::FrameType::kRetransmission) {
      ++data_frames_sent_;
    }
    auto& loss = (from == 0) ? loss_a_to_b_ : loss_b_to_a_;
    if (loss->lose(sim_.now(), rng_)) {
      ++frames_lost_;
      return;
    }
    overlay::LinkProtocolEndpoint* target = (from == 0) ? end_b_ : end_a_;
    sim_.schedule(one_way_, [target, f = std::move(f)]() {
      if (target != nullptr) target->on_frame(f);
    });
  }

  sim::Simulator& sim_;
  sim::Rng rng_;
  sim::Duration one_way_;
  std::unique_ptr<net::LossModel> loss_a_to_b_;
  std::unique_ptr<net::LossModel> loss_b_to_a_;
  Side a_;
  Side b_;
  overlay::LinkProtocolEndpoint* end_a_ = nullptr;
  overlay::LinkProtocolEndpoint* end_b_ = nullptr;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t data_frames_sent_ = 0;
};

/// Builds a message with the fields protocols care about.
inline overlay::Message make_msg(std::uint64_t seq, sim::TimePoint now,
                                 overlay::NodeId origin = 0,
                                 std::size_t payload_bytes = 100) {
  overlay::Message m;
  m.hdr.origin = origin;
  m.hdr.dest = overlay::Destination::unicast(1, 7);
  m.hdr.origin_id = (std::uint64_t{origin} << 48) | seq;
  m.hdr.flow_seq = seq;
  m.hdr.flow_key = 0xF00 + origin;
  m.hdr.origin_time = now;
  m.payload = overlay::make_payload(payload_bytes);
  return m;
}

}  // namespace son::test
