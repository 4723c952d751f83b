// Integration tests for dynamic behaviour: group churn, flow aggregation,
// asymmetric provider backbones, loopback delivery, and the global map.
#include <gtest/gtest.h>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"
#include "overlay/reliable_link.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;

// ---- Group churn ------------------------------------------------------------

TEST(GroupChurn, LateJoinerStartsReceiving) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{1});
  fx.overlay->settle(3_s);
  constexpr GroupId kG = 50;

  auto& early = fx.overlay->node(3).connect(10);
  early.join(kG);
  auto& late = fx.overlay->node(5).connect(10);
  client::MeasuringSink s_early{early}, s_late{late};
  sim.run_for(2_s);

  auto& src = fx.overlay->node(0).connect(9);
  client::FlowEngine sender{sim, src, {.payload_bytes = 100, .rate_pps = 100},
                            Destination::multicast(kG), sim.now(), sim.now() + 10_s};
  sim.schedule(4_s, [&]() { late.join(kG); });
  sim.run_for(12_s);

  EXPECT_GT(s_early.delivery_ratio(sender.totals().sent), 0.99);
  // The late joiner gets roughly the last 60% of the stream (joined at 4 of
  // 10 s, minus a flood-propagation beat).
  const double late_ratio = s_late.delivery_ratio(sender.totals().sent);
  EXPECT_GT(late_ratio, 0.5);
  EXPECT_LT(late_ratio, 0.7);
}

TEST(GroupChurn, LeaverStopsReceivingAndTreePrunes) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{2});
  fx.overlay->settle(3_s);
  constexpr GroupId kG = 51;

  auto& stay = fx.overlay->node(2).connect(10);
  auto& leave = fx.overlay->node(4).connect(10);
  stay.join(kG);
  leave.join(kG);
  client::MeasuringSink s_stay{stay}, s_leave{leave};
  sim.run_for(2_s);

  auto& src = fx.overlay->node(0).connect(9);
  client::FlowEngine sender{sim, src, {.payload_bytes = 100, .rate_pps = 100},
                            Destination::multicast(kG), sim.now(), sim.now() + 10_s};
  sim.schedule(4_s, [&]() { leave.leave(kG); });
  sim.run_for(12_s);

  EXPECT_GT(s_stay.delivery_ratio(sender.totals().sent), 0.99);
  const double leave_ratio = s_leave.delivery_ratio(sender.totals().sent);
  EXPECT_GT(leave_ratio, 0.3);
  EXPECT_LT(leave_ratio, 0.5);
  // After the leave propagates, node 4 is no longer a member anywhere.
  EXPECT_FALSE(fx.overlay->node(0).groups().is_member(4, kG));
}

TEST(GroupChurn, AnycastReselectsAfterMemberLeaves) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{3});
  fx.overlay->settle(3_s);
  constexpr GroupId kG = 52;
  auto& near = fx.overlay->node(1).connect(10);
  auto& far = fx.overlay->node(4).connect(10);
  near.join(kG);
  far.join(kG);
  client::MeasuringSink s_near{near}, s_far{far};
  sim.run_for(2_s);

  auto& src = fx.overlay->node(0).connect(9);
  src.send(Destination::anycast(kG), make_payload(10), ServiceSpec{});
  sim.run_for(1_s);
  EXPECT_EQ(s_near.received(), 1u);

  near.leave(kG);
  sim.run_for(2_s);
  src.send(Destination::anycast(kG), make_payload(10), ServiceSpec{});
  sim.run_for(1_s);
  EXPECT_EQ(s_near.received(), 1u);  // unchanged
  EXPECT_EQ(s_far.received(), 1u);   // new nearest member
}

// ---- Flow aggregation on links (§II-C) -----------------------------------------

TEST(FlowAggregation, FlowsShareOneReliableLinkInstance) {
  // "Within the overlay, application data flows may be aggregated based on
  // their source and destination overlay nodes or the services they select,
  // with state maintenance and processing performed on the aggregate flows."
  // Concretely: ALL reliable flows crossing one overlay link share one ARQ
  // instance and one sequence space.
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 2;
  auto fx = build_chain(sim, opts, sim::Rng{4});
  fx.overlay->settle(3_s);

  ServiceSpec spec;
  spec.link_protocol = LinkProtocol::kReliable;
  auto& c1 = fx.overlay->node(0).connect(1);
  auto& c2 = fx.overlay->node(0).connect(2);
  auto& d1 = fx.overlay->node(1).connect(11);
  auto& d2 = fx.overlay->node(1).connect(12);
  client::MeasuringSink s1{d1}, s2{d2};
  for (int i = 0; i < 10; ++i) {
    c1.send(Destination::unicast(1, 11), make_payload(50), spec);
    c2.send(Destination::unicast(1, 12), make_payload(50), spec);
  }
  sim.run_for(1_s);
  EXPECT_EQ(s1.received(), 10u);
  EXPECT_EQ(s2.received(), 10u);

  auto* ep = dynamic_cast<ReliableLinkEndpoint*>(
      fx.overlay->node(0).find_endpoint(fx.hop_overlay_links[0], LinkProtocol::kReliable));
  ASSERT_NE(ep, nullptr);
  // One aggregate instance carried both flows: 20 data frames on one link
  // sequence space.
  EXPECT_EQ(ep->stats().data_sent, 20u);
}

// ---- Asymmetric provider backbones --------------------------------------------

TEST(AsymmetricIsps, OverlayLinkUsesWhicheverProviderHasTheFiber) {
  // ISP A skips one edge; ISP B skips another. Each overlay link still comes
  // up on the provider(s) that built its fiber.
  Simulator sim;
  net::Internet inet{sim, sim::Rng{5}};
  const auto map = topo::continental_us();
  topo::DualIspOptions opts;
  opts.skip_in_isp_a = {0};  // ISP A has no NYC-WDC fiber
  opts.skip_in_isp_b = {1};  // ISP B has no NYC-CHI fiber
  const auto u = topo::build_dual_isp(inet, map, opts);
  overlay::NodeConfig cfg;
  OverlayNetwork net{inet, u.overlay, u.hosts, cfg, sim::Rng{6}};
  net.settle(3_s);

  const auto h01 = net.node(0).link_health(0);  // NYC-WDC: only ISP B works
  EXPECT_TRUE(h01.up);
  EXPECT_EQ(h01.active_channel, 1);
  const auto h04 = net.node(0).link_health(1);  // NYC-CHI: only ISP A works
  EXPECT_TRUE(h04.up);
  EXPECT_EQ(h04.active_channel, 0);
}

// ---- Loopback and local delivery ------------------------------------------------

TEST(Loopback, UnicastToClientOnSameNode) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(6), gopts, sim::Rng{7});
  fx.overlay->settle(3_s);
  auto& a = fx.overlay->node(0).connect(1);
  auto& b = fx.overlay->node(0).connect(2);
  client::MeasuringSink sink{b};
  a.send(Destination::unicast(0, 2), make_payload(10), ServiceSpec{});
  sim.run_for(100_ms);
  EXPECT_EQ(sink.received(), 1u);
  EXPECT_LT(sink.latencies_ms().max(), 0.001);  // no network traversal
}

// ---- Global map -------------------------------------------------------------------

TEST(GlobalMap, AnyPointToAnyPointWithin150ms) {
  // §II-A: "about 150ms is sufficient to reach nearly any point on the globe
  // from any other point."
  const auto map = topo::global_sites();
  const topo::Graph g = topo::overlay_graph(map);
  for (topo::NodeIndex a = 0; a < g.num_nodes(); ++a) {
    for (topo::NodeIndex b = static_cast<topo::NodeIndex>(a + 1); b < g.num_nodes(); ++b) {
      const auto p = topo::shortest_path(g, a, b);
      ASSERT_TRUE(p.has_value()) << a << "->" << b;
      EXPECT_LT(topo::path_cost(g, *p), 150.0)
          << map.cities[a].name << "->" << map.cities[b].name;
    }
  }
}

TEST(GlobalMap, EndToEndTrafficAcrossTheGlobe) {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{8}};
  const auto map = topo::global_sites();
  const auto u = topo::build_dual_isp(inet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  OverlayNetwork net{inet, u.overlay, u.hosts, cfg, sim::Rng{9}};
  net.settle(4_s);

  // SYD (8) -> LON (3): roughly the antipodal worst case in the map.
  auto& src = net.node(8).connect(1);
  auto& dst = net.node(3).connect(2);
  client::MeasuringSink sink{dst};
  ServiceSpec spec;
  spec.link_protocol = LinkProtocol::kReliable;
  for (int i = 0; i < 10; ++i) src.send(Destination::unicast(3, 2), make_payload(500), spec);
  sim.run_for(2_s);
  EXPECT_EQ(sink.received(), 10u);
  EXPECT_LT(sink.latencies_ms().max(), 150.0);
}

// ---- Control-plane robustness -----------------------------------------------------

TEST(ControlPlane, LsaRefreshRepairsLostFloods) {
  // Even if a flood copy is lost, the periodic state refresh reconverges
  // the topology databases.
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{10});
  // Horrible control-plane conditions: 30% loss on every fiber.
  for (const auto l : fx.fiber) {
    const auto [a, b] = fx.internet->link_endpoints(l);
    fx.internet->link_dir(l, a).set_loss_model(net::make_bernoulli(0.3));
    fx.internet->link_dir(l, b).set_loss_model(net::make_bernoulli(0.3));
  }
  fx.overlay->settle(10_s);
  // Every node's database must have heard from every origin.
  for (NodeId n = 0; n < fx.overlay->size(); ++n) {
    for (NodeId origin = 0; origin < fx.overlay->size(); ++origin) {
      EXPECT_GT(fx.overlay->node(n).topology().stored_seq(origin), 0u)
          << "node " << n << " never heard LSA from " << origin;
    }
  }
}

TEST(ControlPlane, MeasuredLatencyConvergesToFiber) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 3;
  opts.hop_latency = 15_ms;
  auto fx = build_chain(sim, opts, sim::Rng{11});
  fx.overlay->settle(5_s);
  // Node 2's view of link 0 (between nodes 0 and 1) comes entirely from
  // flooded LSAs and must reflect the measured ~15 ms one-way latency.
  const double cost = fx.overlay->node(2).topology().link_cost(0);
  EXPECT_NEAR(cost, 15.0, 2.0);
}


// ---- Anycast exactly-once and overlay TTL ----------------------------------------

TEST(AnycastSemantics, ExactlyOneClientEvenWithMultipleJoinedOnNode) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(6), gopts, sim::Rng{70});
  fx.overlay->settle(3_s);
  constexpr GroupId kG = 31;
  auto& c1 = fx.overlay->node(2).connect(10);
  auto& c2 = fx.overlay->node(2).connect(11);  // same node, also joined
  c1.join(kG);
  c2.join(kG);
  client::MeasuringSink s1{c1}, s2{c2};
  sim.run_for(2_s);
  auto& src = fx.overlay->node(0).connect(9);
  for (int i = 0; i < 5; ++i) {
    src.send(Destination::anycast(kG), make_payload(10), ServiceSpec{});
  }
  sim.run_for(1_s);
  EXPECT_EQ(s1.received() + s2.received(), 5u);  // exactly one member each
}

TEST(OverlayTtl, HopCountRecordedOnDelivery) {
  Simulator sim;
  ChainOptions copts;
  copts.n_nodes = 5;
  auto fx = build_chain(sim, copts, sim::Rng{71});
  fx.overlay->settle(3_s);
  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(4).connect(2);
  std::uint8_t hops = 0;
  dst.set_handler([&](const Message& m, Duration) { hops = m.hdr.hops; });
  ServiceSpec spec;
  spec.scheme = RouteScheme::kDissemination;
  spec.custom_mask = fx.chain_mask();
  src.send(Destination::unicast(4, 2), make_payload(10), spec);
  sim.run_for(1_s);
  EXPECT_EQ(hops, 4);  // four overlay links traversed
}

}  // namespace
}  // namespace son::overlay
