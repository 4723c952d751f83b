// Tests for the XOR-parity FEC extension protocol.
#include <gtest/gtest.h>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "fake_link.hpp"
#include "overlay/fec.hpp"
#include "overlay/network.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;
using son::test::FakeLinkPair;
using son::test::make_msg;

struct FecFixture {
  Simulator sim;
  FakeLinkPair pair;
  std::unique_ptr<LinkProtocolEndpoint> a;
  std::unique_ptr<LinkProtocolEndpoint> b;

  explicit FecFixture(double loss, LinkProtocolConfig cfg = {}, std::uint64_t seed = 50)
      : pair{sim, 5_ms, loss, seed} {
    a = make_link_endpoint(LinkProtocol::kFec, pair.ctx_a(), cfg);
    b = make_link_endpoint(LinkProtocol::kFec, pair.ctx_b(), cfg);
    pair.attach(a.get(), b.get());
  }
};

TEST(Fec, CleanLinkDeliversAllWithParityOverhead) {
  FecFixture f{0.0};
  for (std::uint64_t i = 1; i <= 40; ++i) f.a->send(make_msg(i, f.sim.now()));
  f.sim.run_for(1_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 40u);
  auto* tx = dynamic_cast<FecEndpoint*>(f.a.get());
  EXPECT_EQ(tx->stats().data_sent, 40u);
  EXPECT_EQ(tx->stats().parity_sent, 10u);  // K=4 -> 25% overhead
}

TEST(Fec, ReconstructsSingleLossPerGroupWithoutFeedback) {
  // Drop exactly one data frame per group of 5 transmissions (4 data + 1
  // parity): every message still arrives, with zero requests sent back.
  class DropEveryFifth final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override { return ++n_ % 5 == 1; }
    [[nodiscard]] double average_loss_rate() const override { return 0.2; }

   private:
    int n_ = 0;
  };
  FecFixture f{0.0};
  f.pair.set_loss_a_to_b(std::make_unique<DropEveryFifth>());
  for (std::uint64_t i = 1; i <= 40; ++i) f.a->send(make_msg(i, f.sim.now()));
  f.sim.run_for(1_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 40u);
  auto* rx = dynamic_cast<FecEndpoint*>(f.b.get());
  EXPECT_EQ(rx->stats().reconstructed, 10u);
  // Proactive: not a single frame traveled b -> a.
  // (frames_sent counts both directions; a sent 50, so the total must be 50.)
  EXPECT_EQ(f.pair.frames_sent(), 50u);
}

TEST(Fec, ReconstructedPayloadIsExact) {
  class DropSecond final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override { return ++n_ == 2; }
    [[nodiscard]] double average_loss_rate() const override { return 0.0; }

   private:
    int n_ = 0;
  };
  FecFixture f{0.0};
  f.pair.set_loss_a_to_b(std::make_unique<DropSecond>());
  // Distinct payload contents and sizes per message.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    Message m = make_msg(i, f.sim.now());
    std::vector<std::uint8_t> body(10 * i);
    for (std::size_t j = 0; j < body.size(); ++j) {
      body[j] = static_cast<std::uint8_t>(i * 31 + j);
    }
    m.payload = make_payload(std::move(body));
    f.a->send(std::move(m));
  }
  f.sim.run_for(1_s);
  ASSERT_EQ(f.pair.ctx_b().delivered.size(), 4u);
  // Find the rebuilt message (flow_seq 2) and verify every byte.
  for (const auto& m : f.pair.ctx_b().delivered) {
    const std::uint64_t i = m.hdr.flow_seq;
    ASSERT_EQ(m.payload_size(), 10 * i);
    for (std::size_t j = 0; j < m.payload->size(); ++j) {
      ASSERT_EQ((*m.payload)[j], static_cast<std::uint8_t>(i * 31 + j))
          << "seq " << i << " byte " << j;
    }
  }
}

TEST(Fec, TwoLossesInOneGroupAreUnrecoverable) {
  class DropFirstTwo final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override { return ++n_ <= 2; }
    [[nodiscard]] double average_loss_rate() const override { return 0.0; }

   private:
    int n_ = 0;
  };
  FecFixture f{0.0};
  f.pair.set_loss_a_to_b(std::make_unique<DropFirstTwo>());
  for (std::uint64_t i = 1; i <= 400; ++i) f.a->send(make_msg(i, f.sim.now()));
  f.sim.run_for(1_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 398u);  // first two gone for good
  auto* rx = dynamic_cast<FecEndpoint*>(f.b.get());
  EXPECT_EQ(rx->stats().reconstructed, 0u);
  EXPECT_EQ(rx->stats().unrecoverable_groups, 1u);  // counted once pruned
}

TEST(Fec, GroupSizeConfigurable) {
  LinkProtocolConfig cfg;
  cfg.fec_group_size = 8;
  FecFixture f{0.0, cfg};
  for (std::uint64_t i = 1; i <= 80; ++i) f.a->send(make_msg(i, f.sim.now()));
  f.sim.run_for(1_s);
  auto* tx = dynamic_cast<FecEndpoint*>(f.a.get());
  EXPECT_EQ(tx->stats().parity_sent, 10u);  // 80/8
}

TEST(Fec, RandomLossStatisticalRecovery) {
  // 5% independent loss, K=4: P(>=2 losses in a 4-frame group) is small;
  // FEC should push residual loss well under 1%.
  FecFixture f{0.05, {}, 51};
  const int n = 4000;
  for (int i = 1; i <= n; ++i) {
    f.sim.schedule(Duration::milliseconds(i), [&f, i]() {
      f.a->send(make_msg(static_cast<std::uint64_t>(i), f.sim.now()));
    });
  }
  f.sim.run_for(10_s);
  const double delivered =
      static_cast<double>(f.pair.ctx_b().delivered.size()) / static_cast<double>(n);
  // Residual = P(frame lost AND group otherwise damaged) ~= p*(1-(1-p)^4)
  // ~= 0.93% at p=5%, so ~99% delivery (vs 95% raw).
  EXPECT_GT(delivered, 0.985);
  auto* rx = dynamic_cast<FecEndpoint*>(f.b.get());
  EXPECT_GT(rx->stats().reconstructed, 100u);
}

TEST(Fec, EndToEndThroughOverlayNodes) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 3;
  auto fx = build_chain(sim, opts, sim::Rng{52});
  for (const auto link : fx.hop_links) {
    const auto [a, b] = fx.internet->link_endpoints(link);
    fx.internet->link_dir(link, a).set_loss_model(net::make_bernoulli(0.03));
  }
  fx.overlay->settle(3_s);
  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(2).connect(2);
  client::MeasuringSink sink{dst};
  ServiceSpec spec;
  spec.scheme = RouteScheme::kDissemination;
  spec.custom_mask = fx.chain_mask();
  spec.link_protocol = LinkProtocol::kFec;
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 600, .rate_pps = 500},
                            Destination::unicast(2, 2), sim.now(), sim.now() + 10_s};
  sim.run_for(12_s);
  EXPECT_GT(sink.delivery_ratio(sender.totals().sent), 0.99);
  EXPECT_EQ(sink.duplicates(), 0u);
  // FEC adds no FEEDBACK latency: reconstruction waits only for the rest of
  // the group + parity (a few ms at 500 pkt/s), never a retransmission RTT.
  EXPECT_LT(sink.latencies_ms().quantile(0.99), 32.0);
}

}  // namespace
}  // namespace son::overlay
