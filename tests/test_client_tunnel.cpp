// Tests for the packet-interception tunnel gateway and the traffic helpers.
#include <gtest/gtest.h>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "client/tunnel.hpp"
#include "overlay/network.hpp"

namespace son::client {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;

/// A 4-node chain overlay plus two remote "app" hosts hanging off the edge
/// routers — the unmodified applications whose traffic gets intercepted.
struct TunnelFixture {
  Simulator sim;
  overlay::ChainFixture fx;
  net::HostId app_a = net::kInvalidHost;
  net::HostId app_b = net::kInvalidHost;
  std::unique_ptr<TunnelGateway> gw_ingress;
  std::unique_ptr<TunnelGateway> gw_egress;

  TunnelFixture() {
    overlay::ChainOptions opts;
    opts.n_nodes = 4;
    opts.hop_latency = 10_ms;
    fx = overlay::build_chain(sim, opts, sim::Rng{21});

    // App hosts attach near the chain's ends.
    auto& inet = *fx.internet;
    app_a = inet.add_host("app-a");
    app_b = inet.add_host("app-b");
    net::LinkConfig access;
    access.prop_delay = sim::Duration::microseconds(100);
    // Routers 0 and 3 are the chain's edge routers (added first, in order).
    inet.attach_host(app_a, 0, access);
    inet.attach_host(app_b, 3, access);

    gw_ingress = std::make_unique<TunnelGateway>(inet, fx.overlay->node(0));
    gw_egress = std::make_unique<TunnelGateway>(inet, fx.overlay->node(3));
    fx.overlay->settle(3_s);
  }
};

TEST(Tunnel, UnmodifiedAppTrafficRidesTheOverlay) {
  TunnelFixture f;
  TunnelGateway::Rule rule;
  rule.service_port = 443;
  rule.app_dst_host = f.app_b;
  rule.app_dst_port = 443;
  rule.egress_node = 3;
  rule.service.link_protocol = overlay::LinkProtocol::kReliable;
  f.gw_ingress->add_rule(rule);

  // The unmodified app: plain datagrams, no overlay API anywhere.
  std::vector<std::string> got;
  f.fx.internet->bind(f.app_b, [&](const net::Datagram& d) {
    const auto* body = d.payload.get<std::vector<std::uint8_t>>();
    ASSERT_NE(body, nullptr);
    got.push_back(std::string{body->begin(), body->end()});
    EXPECT_EQ(d.dst_port, 443);
  });
  net::Datagram d;
  d.src = f.app_a;
  d.dst = f.fx.overlay->node(0).host();  // the redirect target
  d.src_port = 5555;
  d.dst_port = 443;
  d.payload = std::vector<std::uint8_t>{'G', 'E', 'T', ' ', '/'};
  f.fx.internet->send(std::move(d));
  f.sim.run_for(500_ms);

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "GET /");
  EXPECT_EQ(f.gw_ingress->stats().intercepted, 1u);
  EXPECT_EQ(f.gw_egress->stats().reemitted, 1u);
}

TEST(Tunnel, UnprovisionedPortIsNotIntercepted) {
  TunnelFixture f;
  TunnelGateway::Rule rule;
  rule.service_port = 443;
  rule.app_dst_host = f.app_b;
  rule.app_dst_port = 443;
  rule.egress_node = 3;
  f.gw_ingress->add_rule(rule);

  net::Datagram d;
  d.src = f.app_a;
  d.dst = f.fx.overlay->node(0).host();
  d.dst_port = 80;  // no rule/binding for port 80
  d.payload = std::vector<std::uint8_t>{'x'};
  f.fx.internet->send(std::move(d));
  f.sim.run_for(200_ms);
  EXPECT_EQ(f.gw_ingress->stats().intercepted, 0u);
  EXPECT_EQ(f.gw_egress->stats().reemitted, 0u);
  EXPECT_GE(f.fx.internet->counters().dropped[static_cast<int>(
                net::DropReason::kNoHandler)],
            1u);
}

TEST(Tunnel, TunneledTrafficGetsOverlayRecovery) {
  TunnelFixture f;
  // 10% loss on the middle fiber; the reliable tunnel service recovers it.
  const auto link = f.fx.hop_links[1];
  const auto [a, b] = f.fx.internet->link_endpoints(link);
  f.fx.internet->link_dir(link, a).set_loss_model(net::make_bernoulli(0.1));

  TunnelGateway::Rule rule;
  rule.service_port = 443;
  rule.app_dst_host = f.app_b;
  rule.app_dst_port = 443;
  rule.egress_node = 3;
  rule.service.link_protocol = overlay::LinkProtocol::kReliable;
  f.gw_ingress->add_rule(rule);

  int got = 0;
  f.fx.internet->bind(f.app_b, [&](const net::Datagram&) { ++got; });
  for (int i = 0; i < 200; ++i) {
    net::Datagram d;
    d.src = f.app_a;
    d.dst = f.fx.overlay->node(0).host();
    d.src_port = 5555;
    d.dst_port = 443;
    d.payload = std::vector<std::uint8_t>(100, 0x42);
    f.fx.internet->send(std::move(d));
  }
  f.sim.run_for(5_s);
  EXPECT_EQ(got, 200);
}

TEST(Tunnel, PreservesAppAddressing) {
  TunnelFixture f;
  TunnelGateway::Rule rule;
  rule.service_port = 7777;
  rule.app_dst_host = f.app_b;
  rule.app_dst_port = 8888;  // port rewrite at egress (DNAT-like)
  rule.egress_node = 3;
  f.gw_ingress->add_rule(rule);
  std::uint16_t seen_src_port = 0, seen_dst_port = 0;
  f.fx.internet->bind(f.app_b, [&](const net::Datagram& d) {
    seen_src_port = d.src_port;
    seen_dst_port = d.dst_port;
  });
  net::Datagram d;
  d.src = f.app_a;
  d.dst = f.fx.overlay->node(0).host();
  d.src_port = 1234;
  d.dst_port = 7777;
  d.payload = std::vector<std::uint8_t>{'z'};
  f.fx.internet->send(std::move(d));
  f.sim.run_for(500_ms);
  EXPECT_EQ(seen_src_port, 1234);
  EXPECT_EQ(seen_dst_port, 8888);
}

// ---- Traffic helper edge cases ------------------------------------------------

TEST(Traffic, CbrSenderStopsAtStopTime) {
  Simulator sim;
  overlay::GraphOptions gopts;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(6), gopts,
                                         sim::Rng{22});
  fx.overlay->settle(3_s);
  auto& src = fx.overlay->node(0).connect(1);
  FlowEngine sender{sim, src, {.payload_bytes = 50, .rate_pps = 100},
                    overlay::Destination::unicast(3, 2), sim.now(), sim.now() + 1_s};
  sim.run_for(5_s);
  EXPECT_EQ(sender.totals().sent, 100u);
}

TEST(Traffic, PoissonSenderApproximatesRate) {
  Simulator sim;
  overlay::GraphOptions gopts;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(6), gopts,
                                         sim::Rng{23});
  fx.overlay->settle(3_s);
  auto& src = fx.overlay->node(0).connect(1);
  FlowEngine sender{sim, src, {.payload_bytes = 50, .rate_pps = 200, .poisson = true},
                    overlay::Destination::unicast(3, 2), sim.now(), sim.now() + 20_s, sim::Rng{24}};
  sim.run_for(25_s);
  EXPECT_NEAR(static_cast<double>(sender.totals().sent), 4000.0, 250.0);
}

TEST(Traffic, MeasuringSinkCountsDuplicatesSeparately) {
  Simulator sim;
  overlay::GraphOptions gopts;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(6), gopts,
                                         sim::Rng{25});
  fx.overlay->settle(3_s);
  auto& dst = fx.overlay->node(3).connect(2);
  MeasuringSink sink{dst};
  auto& src = fx.overlay->node(0).connect(1);
  overlay::ServiceSpec spec;
  spec.scheme = overlay::RouteScheme::kFlooding;  // redundant copies en route
  for (int i = 0; i < 20; ++i) {
    src.send(overlay::Destination::unicast(3, 2), overlay::make_payload(10), spec);
  }
  sim.run_for(1_s);
  EXPECT_EQ(sink.received(), 20u);
  EXPECT_EQ(sink.duplicates(), 0u);  // dedup happens at the NODE, not client
}

}  // namespace
}  // namespace son::client
