// Integration tests: whole overlay networks over a simulated underlay.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "net/failures.hpp"
#include "overlay/network.hpp"
#include "sim/check.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

// ---- Chain fixture ------------------------------------------------------------

TEST(NodeChain, HelloProtocolMeasuresRtt) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 3;
  opts.hop_latency = 10_ms;
  auto fx = build_chain(sim, opts, sim::Rng{1});
  fx.overlay->settle(3_s);
  const auto h = fx.overlay->node(0).link_health(fx.hop_overlay_links[0]);
  EXPECT_TRUE(h.up);
  // RTT = 2 * (10ms prop + small overheads).
  EXPECT_NEAR(h.srtt.to_millis_f(), 20.0, 2.0);
  EXPECT_LT(h.loss_estimate, 0.01);
}

TEST(NodeChain, UnicastLinkStateDelivery) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 4;
  auto fx = build_chain(sim, opts, sim::Rng{2});
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(100);
  auto& dst = fx.overlay->node(3).connect(200);
  client::MeasuringSink sink{dst};

  ServiceSpec spec;  // link-state + best effort
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(src.send(Destination::unicast(3, 200), make_payload(500), spec));
  }
  sim.run_for(1_s);
  EXPECT_EQ(sink.received(), 10u);
  // Link-state routing prefers the 3-hop chain (30ms) over... the direct
  // link (also 30ms but one hop, lower node-traversal cost). Either way
  // latency is ~30ms.
  EXPECT_NEAR(sink.latencies_ms().mean(), 30.0, 3.0);
}

TEST(NodeChain, SourceRoutedMaskFollowsExactLinks) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 5;
  auto fx = build_chain(sim, opts, sim::Rng{3});
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(100);
  auto& dst = fx.overlay->node(4).connect(200);
  client::MeasuringSink sink{dst};

  // Force the hop-by-hop chain.
  ServiceSpec chain_spec;
  chain_spec.scheme = RouteScheme::kDissemination;
  chain_spec.custom_mask = fx.chain_mask();
  src.send(Destination::unicast(4, 200), make_payload(100), chain_spec);
  sim.run_for(1_s);
  ASSERT_EQ(sink.received(), 1u);
  const double chain_lat = sink.latencies_ms().max();

  // Force the direct link: same fiber, but one overlay hop.
  ServiceSpec direct_spec;
  direct_spec.scheme = RouteScheme::kDissemination;
  direct_spec.custom_mask = fx.direct_mask();
  src.send(Destination::unicast(4, 200), make_payload(100), direct_spec);
  sim.run_for(1_s);
  ASSERT_EQ(sink.received(), 2u);
  // Chain pays 3 extra node traversals but the same propagation: the two
  // latencies differ by well under a millisecond.
  EXPECT_NEAR(chain_lat, sink.latencies_ms().max(), 1.0);
  EXPECT_NEAR(chain_lat, 40.0, 2.0);
}

TEST(NodeChain, ReliableHopByHopRecoversAllUnderLoss) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 6;
  auto fx = build_chain(sim, opts, sim::Rng{4});
  // 2% loss on every hop, both directions.
  for (const auto link : fx.hop_links) {
    const auto [a, b] = fx.internet->link_endpoints(link);
    fx.internet->link_dir(link, a).set_loss_model(net::make_bernoulli(0.02));
    fx.internet->link_dir(link, b).set_loss_model(net::make_bernoulli(0.02));
  }
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(100);
  auto& dst = fx.overlay->node(5).connect(200);
  client::MeasuringSink sink{dst};

  ServiceSpec spec;
  spec.scheme = RouteScheme::kDissemination;
  spec.custom_mask = fx.chain_mask();
  spec.link_protocol = LinkProtocol::kReliable;
  spec.ordered = true;

  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 800, .rate_pps = 500},
                            Destination::unicast(5, 200), sim.now(), sim.now() + 10_s};
  sim.run_for(15_s);
  EXPECT_EQ(sink.received(), sender.totals().sent);
  EXPECT_GT(sender.totals().sent, 4000u);
}

TEST(NodeChain, MulticastReachesAllJoinedClients) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 5;
  auto fx = build_chain(sim, opts, sim::Rng{5});
  fx.overlay->settle(3_s);

  constexpr GroupId kGroup = 777;
  auto& c1 = fx.overlay->node(2).connect(10);
  auto& c2 = fx.overlay->node(4).connect(10);
  auto& c3 = fx.overlay->node(3).connect(10);  // NOT joined
  c1.join(kGroup);
  c2.join(kGroup);
  client::MeasuringSink s1{c1}, s2{c2}, s3{c3};
  sim.run_for(3_s);  // let group state flood

  auto& src = fx.overlay->node(0).connect(99);
  ServiceSpec spec;
  for (int i = 0; i < 5; ++i) src.send(Destination::multicast(kGroup), make_payload(200), spec);
  sim.run_for(1_s);
  EXPECT_EQ(s1.received(), 5u);
  EXPECT_EQ(s2.received(), 5u);
  EXPECT_EQ(s3.received(), 0u);
}

TEST(NodeChain, SenderCanAlsoBeGroupMember) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 3;
  auto fx = build_chain(sim, opts, sim::Rng{6});
  fx.overlay->settle(3_s);
  constexpr GroupId kGroup = 5;
  auto& a = fx.overlay->node(0).connect(10);
  auto& b = fx.overlay->node(2).connect(10);
  a.join(kGroup);
  b.join(kGroup);
  client::MeasuringSink sa{a}, sb{b};
  sim.run_for(3_s);
  // "Only receivers need to join the multicast group (any client can send to
  // the group)" — and a joined sender's own node delivers locally too.
  a.send(Destination::multicast(kGroup), make_payload(10), ServiceSpec{});
  sim.run_for(1_s);
  EXPECT_EQ(sb.received(), 1u);
  EXPECT_EQ(sa.received(), 1u);  // local delivery to the joined client
}

TEST(NodeChain, AnycastDeliversToNearestMemberOnly) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 5;
  auto fx = build_chain(sim, opts, sim::Rng{7});
  fx.overlay->settle(3_s);
  constexpr GroupId kGroup = 9;
  auto& near = fx.overlay->node(1).connect(10);
  auto& far = fx.overlay->node(4).connect(10);
  near.join(kGroup);
  far.join(kGroup);
  client::MeasuringSink sn{near}, sf{far};
  sim.run_for(3_s);

  auto& src = fx.overlay->node(0).connect(99);
  for (int i = 0; i < 4; ++i) {
    src.send(Destination::anycast(kGroup), make_payload(50), ServiceSpec{});
  }
  sim.run_for(1_s);
  EXPECT_EQ(sn.received(), 4u);
  EXPECT_EQ(sf.received(), 0u);
}

TEST(NodeChain, OrderedDeliveryViaReorderBuffer) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 4;
  auto fx = build_chain(sim, opts, sim::Rng{8});
  for (const auto link : fx.hop_links) {
    const auto [a, b] = fx.internet->link_endpoints(link);
    fx.internet->link_dir(link, a).set_loss_model(net::make_bernoulli(0.05));
  }
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(100);
  auto& dst = fx.overlay->node(3).connect(200);
  std::vector<std::uint64_t> seqs;
  dst.set_handler([&](const Message& m, Duration) { seqs.push_back(m.hdr.flow_seq); });

  ServiceSpec spec;
  spec.scheme = RouteScheme::kDissemination;
  spec.custom_mask = fx.chain_mask();
  spec.link_protocol = LinkProtocol::kReliable;
  spec.ordered = true;
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 300, .rate_pps = 1000},
                            Destination::unicast(3, 200), sim.now(), sim.now() + 5_s};
  sim.run_for(10_s);
  ASSERT_EQ(seqs.size(), sender.totals().sent);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i + 1);
}

// ---- Dual-ISP US map ----------------------------------------------------------

struct UsFixture {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{400}};
  topo::BackboneMap map = topo::continental_us();
  topo::BuiltUnderlay underlay;
  std::unique_ptr<OverlayNetwork> overlay;

  explicit UsFixture(NodeConfig cfg = {}) {
    topo::DualIspOptions opts;
    underlay = topo::build_dual_isp(inet, map, opts);
    overlay = std::make_unique<OverlayNetwork>(inet, underlay.overlay, underlay.hosts, cfg,
                                               sim::Rng{401});
  }
};

TEST(UsOverlay, AllPairsReachableAfterSettle) {
  UsFixture f;
  f.overlay->settle(3_s);
  // Spot-check a few pairs across the continent.
  const std::vector<std::pair<NodeId, NodeId>> pairs{{0, 9}, {3, 11}, {2, 10}};
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<client::MeasuringSink>> sinks;
  for (const auto& [a, b] : pairs) {
    auto& dst = f.overlay->node(b).connect(50);
    sinks.emplace(std::make_pair(a, b), std::make_unique<client::MeasuringSink>(dst));
    auto& src = f.overlay->node(a).connect(49);
    src.send(Destination::unicast(b, 50), make_payload(100), ServiceSpec{});
  }
  f.sim.run_for(1_s);
  for (const auto& [key, sink] : sinks) {
    EXPECT_EQ(sink->received(), 1u) << key.first << "->" << key.second;
  }
}

TEST(UsOverlay, LatencyIsGeographic) {
  UsFixture f;
  f.overlay->settle(3_s);
  auto& src = f.overlay->node(0).connect(49);  // NYC
  auto& dst = f.overlay->node(10).connect(50);  // SFO
  client::MeasuringSink sink{dst};
  src.send(Destination::unicast(10, 50), make_payload(100), ServiceSpec{});
  f.sim.run_for(1_s);
  ASSERT_EQ(sink.received(), 1u);
  // NYC->SFO overlay path: ~26-35 ms one way (multi-hop, inflated fiber).
  EXPECT_GT(sink.latencies_ms().max(), 20.0);
  EXPECT_LT(sink.latencies_ms().max(), 40.0);
}

TEST(UsOverlay, DesignedWeightsFollowTheUnderlaysRouteInflation) {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{402}};
  const topo::BackboneMap map = topo::continental_us();
  topo::DualIspOptions opts;
  opts.route_inflation = 2.0;
  const topo::BuiltUnderlay u = topo::build_dual_isp(inet, map, opts);
  const OverlayNetwork net{inet, u.overlay, u.hosts, NodeConfig{}, sim::Rng{403}};
  const topo::Graph& g = net.designed_topology();
  ASSERT_EQ(g.num_edges(), map.edges.size());
  for (topo::EdgeIndex e = 0; e < g.num_edges(); ++e) {
    const topo::Graph::Edge& ed = g.edge(e);
    EXPECT_EQ(ed.weight,
              topo::fiber_latency(map.cities[ed.u], map.cities[ed.v], 2.0).to_millis_f())
        << "edge " << e;
  }
}

TEST(UsOverlay, IspChannelFailoverKeepsLinkUp) {
  // Cut the NYC-WDC fiber of ISP A only: the overlay link must stay up by
  // failing over to the ISP B channel, with no overlay-level reroute.
  UsFixture f;
  f.overlay->settle(3_s);
  const auto edge = f.overlay->designed_topology().find_edge(0, 1);
  ASSERT_NE(edge, topo::kNoEdge);
  const auto before = f.overlay->node(0).stats().link_failovers;

  f.inet.set_link_up(f.underlay.links_a[edge], false);
  f.sim.run_for(2_s);

  const auto h = f.overlay->node(0).link_health(static_cast<LinkBit>(edge));
  EXPECT_TRUE(h.up);
  EXPECT_EQ(h.active_channel, 1);  // ISP B
  EXPECT_GT(f.overlay->node(0).stats().link_failovers, before);
}

TEST(UsOverlay, SubSecondRecoveryAfterBothIspsCut) {
  // Cut NYC-WDC fiber in BOTH ISPs: the overlay link goes down and traffic
  // NYC->WDC must reroute at the overlay level within well under a second,
  // while native IP convergence would take 40 s.
  NodeConfig cfg;
  UsFixture f{cfg};
  f.overlay->settle(3_s);

  auto& src = f.overlay->node(0).connect(49);   // NYC
  auto& dst = f.overlay->node(1).connect(50);   // WDC
  client::MeasuringSink sink{dst};
  ServiceSpec spec;
  client::FlowEngine sender{f.sim, src, {.spec = spec, .payload_bytes = 400, .rate_pps = 1000},
                            Destination::unicast(1, 50), f.sim.now(), f.sim.now() + 10_s};

  const auto edge = f.overlay->designed_topology().find_edge(0, 1);
  const TimePoint cut_at = f.sim.now() + 2_s;
  f.sim.schedule_at(cut_at, [&]() {
    f.inet.set_link_up(f.underlay.links_a[edge], false);
    f.inet.set_link_up(f.underlay.links_b[edge], false);
  });
  f.sim.run_for(12_s);

  // Find the largest delivery gap after the cut.
  std::vector<double> arrivals;  // via latency + seq reconstruction is
  // complex; instead measure delivery count: with 1000 pps for 10 s minus a
  // sub-second outage, ≥ ~9.3k of 10k messages must arrive.
  EXPECT_GT(sender.totals().sent, 9900u);
  EXPECT_GT(sink.delivery_ratio(sender.totals().sent), 0.93);
  // And the overlay must now route NYC->WDC via a detour (cost > direct).
  EXPECT_EQ(f.overlay->node(0).router().next_hop(1) == static_cast<LinkBit>(edge), false);
}

TEST(UsOverlay, CompromisedNodeBlackholesLinkStateTraffic) {
  UsFixture f;
  f.overlay->settle(3_s);
  // Route NYC (0) -> ATL (2) goes via WDC (1). Compromise WDC.
  f.overlay->node(1).set_compromise(CompromiseBehavior::blackhole());

  auto& src = f.overlay->node(0).connect(49);
  auto& dst = f.overlay->node(2).connect(50);
  client::MeasuringSink sink{dst};
  for (int i = 0; i < 20; ++i) {
    src.send(Destination::unicast(2, 50), make_payload(100), ServiceSpec{});
  }
  f.sim.run_for(1_s);
  // Link-state routing trusts the (stealthy) compromised node: traffic dies
  // if and only if WDC is on the chosen path. Verify consistency.
  const LinkBit nh = f.overlay->node(0).router().next_hop(2);
  const auto& g = f.overlay->designed_topology();
  const bool via_wdc = g.other_end(nh, 0) == 1;
  if (via_wdc) {
    EXPECT_EQ(sink.received(), 0u);
    EXPECT_EQ(f.overlay->node(1).stats().compromised_dropped, 20u);
  } else {
    EXPECT_EQ(sink.received(), 20u);
  }
}

TEST(UsOverlay, DisjointPathsSurviveOneCompromise) {
  UsFixture f;
  f.overlay->settle(3_s);
  f.overlay->node(1).set_compromise(CompromiseBehavior::blackhole());  // WDC

  auto& src = f.overlay->node(0).connect(49);  // NYC
  auto& dst = f.overlay->node(2).connect(50);  // ATL
  client::MeasuringSink sink{dst};
  ServiceSpec spec;
  spec.scheme = RouteScheme::kDisjointPaths;
  spec.num_paths = 2;
  for (int i = 0; i < 20; ++i) src.send(Destination::unicast(2, 50), make_payload(100), spec);
  f.sim.run_for(1_s);
  EXPECT_EQ(sink.received(), 20u);  // the second path avoids WDC
  EXPECT_EQ(sink.duplicates(), 0u);  // node-level dedup upstream of client
}

TEST(UsOverlay, FloodingSurvivesManyCompromises) {
  UsFixture f;
  f.overlay->settle(3_s);
  // Compromise 3 nodes (WDC, DEN, SEA), leaving a correct path NYC->LAX
  // through the south: NYC-CHI-DFW-PHX-LAX.
  for (const NodeId n : {1, 7, 11}) {
    f.overlay->node(n).set_compromise(CompromiseBehavior::blackhole());
  }
  auto& src = f.overlay->node(0).connect(49);   // NYC
  auto& dst = f.overlay->node(9).connect(50);   // LAX
  client::MeasuringSink sink{dst};
  ServiceSpec spec;
  spec.scheme = RouteScheme::kFlooding;
  for (int i = 0; i < 10; ++i) src.send(Destination::unicast(9, 50), make_payload(100), spec);
  f.sim.run_for(1_s);
  EXPECT_EQ(sink.received(), 10u);
  EXPECT_EQ(sink.duplicates(), 0u);
}

TEST(UsOverlay, FloodingDeliversExactlyOncePerMessage) {
  UsFixture f;
  f.overlay->settle(3_s);
  auto& src = f.overlay->node(5).connect(49);
  auto& dst = f.overlay->node(11).connect(50);
  client::MeasuringSink sink{dst};
  ServiceSpec spec;
  spec.scheme = RouteScheme::kFlooding;
  for (int i = 0; i < 50; ++i) src.send(Destination::unicast(11, 50), make_payload(100), spec);
  f.sim.run_for(1_s);
  EXPECT_EQ(sink.received(), 50u);
  EXPECT_EQ(sink.duplicates(), 0u);
  // The node-level dedup absorbed the redundant copies.
  EXPECT_GT(f.overlay->node(11).stats().dedup_dropped, 0u);
}

// ---- Deployment checks ----------------------------------------------------------

#if SON_DCHECK_ENABLED
TEST(OverlayNetworkDeathTest, MoreThan64LinksAbort) {
  // C_33(1,2) has 66 links; link bits index 64-bit masks.
  Simulator sim;
  EXPECT_DEATH(build_graph_fixture(sim, circulant_topology(33), GraphOptions{}, sim::Rng{1}),
               "more than 64 overlay links");
}

TEST(OverlayNetworkDeathTest, HostsOneShortAborts) {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{1}};
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 5; ++i) hosts.push_back(inet.add_host("h" + std::to_string(i)));
  EXPECT_DEATH(OverlayNetwork(inet, circulant_topology(6), hosts, NodeConfig{}, sim::Rng{2}),
               "one host per overlay node");
}

TEST(ChainFixtureDeathTest, TwoNodeChainHasNoDirectMask) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 2;
  const ChainFixture fx = build_chain(sim, opts, sim::Rng{3});
  EXPECT_DEATH((void)fx.direct_mask(), "no direct link");
}
#endif

}  // namespace
}  // namespace son::overlay
