// Underlay edge cases: peering fallback, TTL, router failures, and realtime
// protocol corner cases.
#include <gtest/gtest.h>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "net/internet.hpp"
#include "overlay/network.hpp"

namespace son {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

net::LinkConfig link_ms(std::int64_t ms) {
  net::LinkConfig cfg;
  cfg.prop_delay = Duration::milliseconds(ms);
  cfg.bandwidth_bps = 1e9;
  return cfg;
}

TEST(InternetEdge, PeeringCarriesTrafficWhenOnNetBreaks) {
  // Host 1 on ISP A only; host 2 on ISP B only; the two ISPs peer at one
  // city. All traffic must cross the peering link.
  Simulator sim;
  net::Internet inet{sim, sim::Rng{1}};
  const auto a = inet.add_isp("a");
  const auto b = inet.add_isp("b");
  const auto ra1 = inet.add_router(a, "ra1");
  const auto ra2 = inet.add_router(a, "ra2");
  const auto rb1 = inet.add_router(b, "rb1");
  const auto rb2 = inet.add_router(b, "rb2");
  inet.add_link(ra1, ra2, link_ms(10));
  inet.add_link(rb1, rb2, link_ms(10));
  inet.add_link(ra2, rb1, link_ms(1));  // peering
  const auto h1 = inet.add_host("h1");
  const auto h2 = inet.add_host("h2");
  inet.attach_host(h1, ra1, link_ms(0));
  inet.attach_host(h2, rb2, link_ms(0));

  int got = 0;
  inet.bind(h2, [&](const net::Datagram&) { ++got; });
  net::Datagram d;
  d.src = h1;
  d.dst = h2;
  inet.send(std::move(d));
  sim.run();
  EXPECT_EQ(got, 1);
  const auto lat = inet.path_latency(h1, net::kAnyAttach, h2, net::kAnyAttach);
  ASSERT_TRUE(lat.has_value());
  EXPECT_NEAR(lat->to_millis_f(), 21.15, 0.5);
}

TEST(InternetEdge, RouterFailureBlackholesUntilConvergence) {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{2}};
  const auto a = inet.add_isp("a");
  const auto r1 = inet.add_router(a, "r1");
  const auto r2 = inet.add_router(a, "r2");
  const auto r3 = inet.add_router(a, "r3");
  inet.add_link(r1, r2, link_ms(5));
  inet.add_link(r2, r3, link_ms(5));
  inet.add_link(r1, r3, link_ms(30));  // detour
  const auto h1 = inet.add_host("h1");
  const auto h2 = inet.add_host("h2");
  inet.attach_host(h1, r1, link_ms(0));
  inet.attach_host(h2, r3, link_ms(0));

  int got = 0;
  inet.bind(h2, [&](const net::Datagram&) { ++got; });
  inet.set_router_up(r2, false);
  // Before convergence: stale route through the dead router.
  net::Datagram d1;
  d1.src = h1;
  d1.dst = h2;
  inet.send(std::move(d1));
  sim.run_for(1_s);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(inet.counters().dropped[static_cast<int>(net::DropReason::kRouterDown)], 1u);
  // After convergence: the 30 ms direct link carries it.
  sim.run();
  net::Datagram d2;
  d2.src = h1;
  d2.dst = h2;
  inet.send(std::move(d2));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST(InternetEdge, QueueDelayVisibleThroughAccessors) {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{3}};
  const auto a = inet.add_isp("a");
  const auto r1 = inet.add_router(a, "r1");
  const auto r2 = inet.add_router(a, "r2");
  net::LinkConfig thin = link_ms(5);
  thin.bandwidth_bps = 1e6;  // 1 Mbps: 1250 B takes 10 ms
  const auto l = inet.add_link(r1, r2, thin);
  auto& dir = inet.link_dir(l, r1);
  EXPECT_EQ(dir.queue_delay(TimePoint::zero()), Duration::zero());
  dir.transmit(TimePoint::zero(), 1250);
  dir.transmit(TimePoint::zero(), 1250);
  EXPECT_EQ(dir.queue_delay(TimePoint::zero()), Duration::milliseconds(20));
}

TEST(InternetEdge, CountersDistinguishDropReasons) {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{4}};
  const auto a = inet.add_isp("a");
  const auto r1 = inet.add_router(a, "r1");
  const auto r2 = inet.add_router(a, "r2");
  net::LinkConfig lossy = link_ms(5);
  lossy.loss_rate = 1.0;
  inet.add_link(r1, r2, lossy);
  const auto h1 = inet.add_host("h1");
  const auto h2 = inet.add_host("h2");
  inet.attach_host(h1, r1, link_ms(0));
  inet.attach_host(h2, r2, link_ms(0));
  inet.bind(h2, [](const net::Datagram&) {});
  net::Datagram d;
  d.src = h1;
  d.dst = h2;
  inet.send(std::move(d));
  sim.run();
  EXPECT_EQ(inet.counters().sent, 1u);
  EXPECT_EQ(inet.counters().delivered, 0u);
  EXPECT_EQ(inet.counters().dropped[static_cast<int>(net::DropReason::kRandomLoss)], 1u);
}

// ---- Realtime corner cases ---------------------------------------------------

TEST(RealtimeEdge, DeadlineShorterThanRttStillDeliversDirectPackets) {
  // Deadline 15 ms on a 10 ms hop (RTT 20 ms): recovery can never make it,
  // but clean packets flow and the protocol neither crashes nor spams.
  Simulator sim;
  overlay::ChainOptions opts;
  opts.n_nodes = 2;
  opts.hop_latency = 10_ms;
  auto fx = overlay::build_chain(sim, opts, sim::Rng{5});
  const auto [a, b] = fx.internet->link_endpoints(fx.hop_links[0]);
  fx.internet->link_dir(fx.hop_links[0], a).set_loss_model(net::make_bernoulli(0.1));
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(1).connect(2);
  client::MeasuringSink sink{dst};
  overlay::ServiceSpec spec;
  spec.link_protocol = overlay::LinkProtocol::kRealtimeNM;
  spec.deadline = 15_ms;
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 300, .rate_pps = 500},
                            overlay::Destination::unicast(1, 2), sim.now(), sim.now() + 5_s};
  sim.run_for(8_s);
  const double ratio = sink.delivery_ratio(sender.totals().sent);
  EXPECT_GT(ratio, 0.85);  // ~the clean fraction
  // Nothing usefully late: everything delivered arrived near the one-way.
  EXPECT_LT(sink.latencies_ms().quantile(0.999), 45.0);
}

TEST(RealtimeEdge, IdleFlowResumesCleanly) {
  // A realtime flow that pauses for seconds (sender history expires) and
  // resumes must not trigger a storm of requests for the silent span.
  Simulator sim;
  overlay::ChainOptions opts;
  opts.n_nodes = 2;
  auto fx = overlay::build_chain(sim, opts, sim::Rng{6});
  fx.overlay->settle(3_s);
  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(1).connect(2);
  client::MeasuringSink sink{dst};
  overlay::ServiceSpec spec;
  spec.link_protocol = overlay::LinkProtocol::kRealtimeNM;
  spec.deadline = 100_ms;
  for (int burst = 0; burst < 3; ++burst) {
    sim.schedule(Duration::seconds(burst * 5), [&]() {
      for (int i = 0; i < 10; ++i) {
        src.send(overlay::Destination::unicast(1, 2), overlay::make_payload(100), spec);
      }
    });
  }
  sim.run_for(20_s);
  EXPECT_EQ(sink.received(), 30u);
  EXPECT_EQ(sink.duplicates(), 0u);
}

}  // namespace
}  // namespace son
