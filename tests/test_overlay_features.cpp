// Tests for crash-stop failures, per-hop authentication (control plane and
// IT data), compound-flow transformers, parallel overlays, and the
// socket-style client API.
#include <gtest/gtest.h>

#include "client/flow_engine.hpp"
#include "client/socket.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"
#include "overlay/transform.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;

// ---- Crash-stop failures ----------------------------------------------------

TEST(Crash, NeighborsDetectAndAdvertiseLinksDown) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{1});
  fx.overlay->settle(3_s);
  fx.overlay->node(2).set_crashed(true);
  sim.run_for(2_s);
  // Node 0's topology view must show every link of node 2 down.
  const auto& db = fx.overlay->node(0).topology();
  const auto& g = fx.overlay->designed_topology();
  for (const auto& [nbr, e] : g.neighbors(2)) {
    EXPECT_FALSE(db.link_up(static_cast<LinkBit>(e))) << "link " << e;
  }
}

TEST(Crash, TrafficReroutesAroundCrashedNode) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{2});
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(10);
  auto& dst = fx.overlay->node(4).connect(11);
  client::MeasuringSink sink{dst};
  client::FlowEngine sender{sim, src, {.payload_bytes = 200, .rate_pps = 200},
                            Destination::unicast(4, 11), sim.now(), sim.now() + 10_s};
  // Crash whatever node is currently the first hop's far end at t+2s.
  sim.schedule(2_s, [&]() {
    const LinkBit nh = fx.overlay->node(0).router().next_hop(4);
    const auto& g = fx.overlay->designed_topology();
    fx.overlay->node(static_cast<NodeId>(g.other_end(nh, 0))).set_crashed(true);
  });
  sim.run_for(12_s);
  // Sub-second outage out of 10 s at 200/s: lose at most ~200 messages.
  EXPECT_GT(sink.delivery_ratio(sender.totals().sent), 0.90);
}

TEST(Crash, RecoveryRestoresLinks) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{3});
  fx.overlay->settle(3_s);
  fx.overlay->node(2).set_crashed(true);
  sim.run_for(2_s);
  fx.overlay->node(2).set_crashed(false);
  sim.run_for(3_s);
  const auto& db = fx.overlay->node(0).topology();
  const auto& g = fx.overlay->designed_topology();
  for (const auto& [nbr, e] : g.neighbors(2)) {
    EXPECT_TRUE(db.link_up(static_cast<LinkBit>(e))) << "link " << e;
  }
}

TEST(Crash, CrashedNodeClientsSilent) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(6), gopts, sim::Rng{4});
  fx.overlay->settle(3_s);
  auto& dst = fx.overlay->node(3).connect(11);
  client::MeasuringSink sink{dst};
  fx.overlay->node(0).set_crashed(true);
  auto& src = fx.overlay->node(0).connect(10);
  src.send(Destination::unicast(3, 11), make_payload(100), ServiceSpec{});
  sim.run_for(1_s);
  EXPECT_EQ(sink.received(), 0u);
}

// ---- Authenticated control plane ------------------------------------------------

struct AuthFixture {
  Simulator sim;
  GraphFixture fx;
  crypto::Key master{};

  AuthFixture() {
    master[3] = 0x77;
    GraphOptions gopts;
    gopts.node.authenticate = true;
    gopts.node.master_key = master;
    fx = build_graph_fixture(sim, circulant_topology(6), gopts, sim::Rng{5});
    fx.overlay->settle(3_s);
  }

  /// Node 0's first neighbour and the link between them.
  [[nodiscard]] std::pair<NodeId, LinkBit> first_link() const {
    const auto& [nbr, e] = fx.overlay->designed_topology().neighbors(0).front();
    return {static_cast<NodeId>(nbr), static_cast<LinkBit>(e)};
  }

  /// Hands `frame` to node 0 as a datagram from node `from`'s host.
  void inject_at_node0(NodeId from, LinkFrame frame) {
    net::Datagram d;
    d.src = fx.hosts[from];
    d.dst = fx.hosts[0];
    d.dst_port = 8100;
    d.payload = std::move(frame);
    fx.internet->send(std::move(d));
  }
};

/// An IT-Priority message from `origin` to port 7 on node 0.
Message it_message_to_node0(NodeId origin, std::uint64_t n) {
  Message m;
  m.hdr.origin = origin;
  m.hdr.dest = Destination::unicast(0, 7);
  m.hdr.origin_id = (std::uint64_t{origin} << 48) | (std::uint64_t{1} << 39) | n;
  m.hdr.flow_seq = n;
  m.hdr.link_protocol = LinkProtocol::kITPriority;
  m.payload = make_payload(100);
  return m;
}

TEST(ControlAuth, LegitimateControlTrafficFlows) {
  AuthFixture f;
  // Hellos and LSAs verified fine: topology is fully up, no auth failures.
  for (NodeId n = 0; n < f.fx.overlay->size(); ++n) {
    EXPECT_EQ(f.fx.overlay->node(n).stats().auth_failures, 0u);
  }
  const auto& g = f.fx.overlay->designed_topology();
  for (topo::EdgeIndex e = 0; e < g.num_edges(); ++e) {
    EXPECT_TRUE(f.fx.overlay->node(0).topology().link_up(static_cast<LinkBit>(e)));
  }
}

TEST(ControlAuth, ForgedLsaInjectionRejected) {
  AuthFixture f;
  // An outsider (no keys) injects a datagram claiming node 3's links are
  // all down. Without authentication this would poison routing network-wide.
  LinkStateAd forged;
  forged.origin = 3;
  forged.seq = 1'000'000;  // very fresh
  const auto& g = f.fx.overlay->designed_topology();
  for (const auto& [nbr, e] : g.neighbors(3)) {
    forged.links.push_back(LinkReport{static_cast<LinkBit>(e), false, 1.0, 0.0});
  }
  LinkFrame frame;
  frame.link = static_cast<LinkBit>(g.neighbors(0).front().second);
  frame.from = static_cast<NodeId>(g.neighbors(0).front().first);
  frame.to = 0;
  frame.type = FrameType::kLsa;
  frame.control = forged;
  frame.authenticated = false;  // outsider has no key

  net::Datagram d;
  d.src = f.fx.hosts[1];
  d.dst = f.fx.hosts[0];
  d.dst_port = 8100;
  d.payload = frame;
  f.fx.internet->send(std::move(d));
  f.sim.run_for(1_s);

  EXPECT_GE(f.fx.overlay->node(0).stats().auth_failures, 1u);
  // Topology unaffected: node 3's links still up, stored seq untouched.
  EXPECT_LT(f.fx.overlay->node(0).topology().stored_seq(3), 1'000'000u);
  for (const auto& [nbr, e] : g.neighbors(3)) {
    EXPECT_TRUE(f.fx.overlay->node(0).topology().link_up(static_cast<LinkBit>(e)));
  }
}

// A keyed insider is still bound to its own links. Node 4 of C_8(1,2) is not
// adjacent to node 0, but holds their pair key, so it can tag a forged LSA
// for origin 3 that node 0's tag check accepts. Node 0 used to apply it and
// flood it on; a control frame is now taken only on one of the receiver's
// links, from that link's peer.
TEST(ControlAuth, NonAdjacentInsiderLsaRejected) {
  Simulator sim;
  crypto::Key master{};
  master[3] = 0x77;
  GraphOptions gopts;
  gopts.node.authenticate = true;
  gopts.node.master_key = master;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{7});
  fx.overlay->settle(3_s);
  const auto& g = fx.overlay->designed_topology();
  constexpr NodeId kInsider = 4;
  for (const auto& [nbr, e] : g.neighbors(0)) ASSERT_NE(nbr, kInsider);

  constexpr std::uint64_t kGhostSeq = std::uint64_t{1} << 40;
  LinkStateAd forged;
  forged.origin = 3;
  forged.seq = kGhostSeq;
  for (const auto& [nbr, e] : g.neighbors(3)) {
    forged.links.push_back(LinkReport{static_cast<LinkBit>(e), false, 1.0, 0.0});
  }
  LinkFrame frame;
  frame.link = static_cast<LinkBit>(g.neighbors(0).front().second);
  frame.from = kInsider;
  frame.to = 0;
  frame.type = FrameType::kLsa;
  frame.control = forged;
  frame.auth = crypto::hmac_tag(crypto::derive_pair_key(master, kInsider, 0),
                                control_auth_bytes(frame));
  frame.authenticated = true;

  net::Datagram d;
  d.src = fx.hosts[kInsider];
  d.dst = fx.hosts[0];
  d.dst_port = 8100;
  d.payload = frame;
  fx.internet->send(std::move(d));
  sim.run_for(1_s);

  EXPECT_LT(fx.overlay->node(0).topology().stored_seq(3), kGhostSeq);
  for (const auto& [nbr, e] : g.neighbors(0)) {
    EXPECT_LT(fx.overlay->node(static_cast<NodeId>(nbr)).topology().stored_seq(3), kGhostSeq)
        << "neighbour " << nbr;
  }
  for (const auto& [nbr, e] : g.neighbors(3)) {
    EXPECT_TRUE(fx.overlay->node(0).topology().link_up(static_cast<LinkBit>(e))) << "link " << e;
  }
}

TEST(ControlAuth, UnauthenticatedDeploymentAcceptsPlainControl) {
  // Sanity: in non-IT deployments the same injection IS accepted (that is
  // exactly the gap authentication closes).
  Simulator sim;
  GraphOptions gopts;  // authenticate = false
  auto fx = build_graph_fixture(sim, circulant_topology(6), gopts, sim::Rng{6});
  fx.overlay->settle(3_s);
  LinkStateAd forged;
  forged.origin = 3;
  forged.seq = 1'000'000;
  LinkFrame frame;
  const auto& g = fx.overlay->designed_topology();
  frame.link = static_cast<LinkBit>(g.neighbors(0).front().second);
  frame.from = static_cast<NodeId>(g.neighbors(0).front().first);
  frame.to = 0;
  frame.type = FrameType::kLsa;
  frame.control = forged;
  net::Datagram d;
  d.src = fx.hosts[1];
  d.dst = fx.hosts[0];
  d.dst_port = 8100;
  d.payload = frame;
  fx.internet->send(std::move(d));
  sim.run_for(1_s);
  EXPECT_EQ(fx.overlay->node(0).topology().stored_seq(3), 1'000'000u);
}

// ---- Per-hop authentication at the link boundary ---------------------------------

// IT-Priority data frames are checked where they enter the node, so a
// forged or tampered frame never reaches the endpoint or the routing level.
TEST(ItPriority, AuthenticationRejectsTamperedFrames) {
  AuthFixture f;
  const auto [peer, link] = f.first_link();
  std::uint64_t delivered = 0;
  f.fx.overlay->node(0).connect(7).set_handler(
      [&](const Message&, sim::Duration) { ++delivered; });
  ServiceSpec spec;
  spec.link_protocol = LinkProtocol::kITPriority;
  f.fx.overlay->node(peer).connect(8).send(Destination::unicast(0, 7), make_payload(100), spec);
  f.sim.run_for(1_s);
  EXPECT_EQ(delivered, 1u);
  const NodeStats& stats = f.fx.overlay->node(0).stats();

  LinkFrame frame;
  frame.link = link;
  frame.from = peer;
  frame.to = 0;
  frame.proto = LinkProtocol::kITPriority;
  frame.type = FrameType::kData;

  // Inject a forged frame directly (no valid tag).
  LinkFrame forged = frame;
  forged.msg = it_message_to_node0(peer, 2);
  forged.authenticated = false;
  f.inject_at_node0(peer, forged);
  f.sim.run_for(1_s);
  EXPECT_EQ(delivered, 1u);  // rejected
  EXPECT_EQ(stats.auth_failures, 1u);

  // And a frame whose header was tampered after signing with the real
  // pairwise key.
  LinkFrame tampered = frame;
  const Message m3 = it_message_to_node0(peer, 3);
  tampered.msg = m3;
  tampered.auth = crypto::hmac_tag(crypto::derive_pair_key(f.master, peer, 0), auth_bytes(m3));
  tampered.authenticated = true;
  tampered.msg->hdr.priority = 99;  // forged priority escalation
  f.inject_at_node0(peer, tampered);
  f.sim.run_for(1_s);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(stats.auth_failures, 2u);
}

// Regression: one datagram that claimed the peer's incarnation + 1 without a
// valid tag used to reset the link, after which every genuine frame from the
// peer was dropped as a pre-crash ghost and the link stayed down until the
// peer really restarted. Untagged frames may only ride the incarnation
// learned from tagged ones, and tagged frames are checked before the
// incarnation discipline.
TEST(LinkAuth, UntaggedIncarnationBumpCannotCutLink) {
  enum class Variant { kItPriorityUntagged, kItReliableAck, kBestEffortData, kWrongKey };
  for (const Variant v : {Variant::kItPriorityUntagged, Variant::kItReliableAck,
                          Variant::kBestEffortData, Variant::kWrongKey}) {
    SCOPED_TRACE(static_cast<int>(v));
    AuthFixture f;
    const auto [peer, link] = f.first_link();
    LinkFrame frame;
    frame.link = link;
    frame.from = peer;
    frame.to = 0;
    frame.incarnation = 1;  // "the peer restarted"
    switch (v) {
      case Variant::kItPriorityUntagged:
        frame.proto = LinkProtocol::kITPriority;
        frame.msg = it_message_to_node0(peer, 1);
        break;
      case Variant::kItReliableAck:
        frame.proto = LinkProtocol::kITReliable;
        frame.type = FrameType::kAck;
        frame.seq = 1;
        break;
      case Variant::kBestEffortData:
        frame.msg = it_message_to_node0(peer, 1);
        frame.msg->hdr.link_protocol = LinkProtocol::kBestEffort;
        break;
      case Variant::kWrongKey:
        frame.proto = LinkProtocol::kITPriority;
        frame.msg = it_message_to_node0(peer, 1);
        frame.auth = crypto::hmac_tag(crypto::derive_pair_key(crypto::Key{}, peer, 0),
                                      auth_bytes(*frame.msg));
        frame.authenticated = true;
        break;
    }
    f.inject_at_node0(peer, frame);
    f.sim.run_for(3_s);

    const auto& node0 = f.fx.overlay->node(0);
    EXPECT_TRUE(node0.link_health(link).up);
    EXPECT_TRUE(f.fx.overlay->node(2).topology().link_up(link));
    EXPECT_EQ(node0.stats().peer_restarts_seen, 0u);
    EXPECT_EQ(node0.stats().auth_failures, 1u);
  }
}

// ---- Compound flows (transformers) --------------------------------------------

TEST(Transform, PipelineTransformsAndForwards) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(6), gopts, sim::Rng{7});
  auto& net = *fx.overlay;

  // source (0) -> transformer at 2 -> consumer at 4.
  FlowTransformer::Options topts;
  topts.in_port = 100;
  topts.out = Destination::unicast(4, 200);
  topts.processing = 5_ms;
  FlowTransformer transformer{sim, net.node(2), topts, [](const Message& m) {
                                return make_payload(m.payload_size() / 2, 0x99);
                              }};

  auto& consumer = net.node(4).connect(200);
  std::vector<std::size_t> sizes;
  sim::SampleSet e2e;
  consumer.set_handler([&](const Message& m, Duration lat) {
    sizes.push_back(m.payload_size());
    e2e.add(lat.to_millis_f());
  });
  net.settle(3_s);

  auto& src = net.node(0).connect(99);
  for (int i = 0; i < 5; ++i) {
    src.send(Destination::unicast(2, 100), make_payload(800), ServiceSpec{});
  }
  sim.run_for(1_s);
  ASSERT_EQ(sizes.size(), 5u);
  for (const auto s : sizes) EXPECT_EQ(s, 400u);
  EXPECT_EQ(transformer.stats().consumed, 5u);
  EXPECT_EQ(transformer.stats().produced, 5u);
  // End-to-end latency covers both legs plus the 5 ms processing (origin
  // time is preserved across the transformation).
  EXPECT_GT(e2e.min(), 2.0 * 10.0 + 5.0);
}

TEST(Transform, FilteringDropsMessages) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(6), gopts, sim::Rng{8});
  auto& net = *fx.overlay;
  FlowTransformer::Options topts;
  topts.in_port = 100;
  topts.out = Destination::unicast(4, 200);
  int n = 0;
  FlowTransformer filter{sim, net.node(2), topts, [&n](const Message&) -> Payload {
                           return (++n % 2 == 0) ? make_payload(10) : nullptr;
                         }};
  auto& consumer = net.node(4).connect(200);
  client::MeasuringSink sink{consumer};
  net.settle(3_s);
  auto& src = net.node(0).connect(99);
  for (int i = 0; i < 10; ++i) {
    src.send(Destination::unicast(2, 100), make_payload(100), ServiceSpec{});
  }
  sim.run_for(1_s);
  EXPECT_EQ(sink.received(), 5u);
  EXPECT_EQ(filter.stats().filtered, 5u);
}

TEST(Transform, AnycastFacilityFailover) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{9});
  auto& net = *fx.overlay;
  constexpr GroupId kFacilities = 900;

  FlowTransformer::Options topts;
  topts.in_port = 100;
  topts.in_group = kFacilities;
  topts.out = Destination::unicast(4, 200);
  FlowTransformer near_facility{sim, net.node(1), topts,
                                [](const Message& m) { return m.payload; }};
  FlowTransformer far_facility{sim, net.node(6), topts,
                               [](const Message& m) { return m.payload; }};
  auto& consumer = net.node(4).connect(200);
  client::MeasuringSink sink{consumer};
  net.settle(3_s);

  auto& src = net.node(0).connect(99);
  client::FlowEngine sender{sim, src, {.payload_bytes = 100, .rate_pps = 100},
                            Destination::anycast(kFacilities), sim.now(), sim.now() + 10_s};
  sim.schedule(4_s, [&]() { net.node(1).set_crashed(true); });
  sim.run_for(12_s);

  EXPECT_GT(near_facility.stats().consumed, 100u);  // served the first 4 s
  EXPECT_GT(far_facility.stats().consumed, 400u);   // took over after crash
  EXPECT_GT(sink.delivery_ratio(sender.totals().sent), 0.90);
}

// ---- Parallel overlays -------------------------------------------------------------

TEST(ParallelOverlays, TwoOverlaysShareMachinesIndependently) {
  // §II-D: "Each computer in a cluster can act as a node in one or several
  // overlays... multiple overlays can even be run in parallel (with each
  // overlay potentially using a different variant of the overlay software)."
  Simulator sim;
  net::Internet inet{sim, sim::Rng{10}};
  const net::IspId isp = inet.add_isp("one");
  std::vector<net::HostId> hosts;
  std::vector<net::RouterId> routers;
  for (int i = 0; i < 4; ++i) {
    routers.push_back(inet.add_router(isp, "r" + std::to_string(i)));
    hosts.push_back(inet.add_host("h" + std::to_string(i)));
    net::LinkConfig access;
    access.prop_delay = sim::Duration::microseconds(50);
    inet.attach_host(hosts.back(), routers.back(), access);
  }
  net::LinkConfig fiber;
  fiber.prop_delay = 5_ms;
  for (int i = 0; i + 1 < 4; ++i) inet.add_link(routers[static_cast<std::size_t>(i)], routers[static_cast<std::size_t>(i) + 1], fiber);

  topo::Graph chain(4);
  chain.add_edge(0, 1, 5);
  chain.add_edge(1, 2, 5);
  chain.add_edge(2, 3, 5);

  NodeConfig cfg_a;  // plain overlay on port 8100
  NodeConfig cfg_b;  // authenticated IT overlay variant on port 8200
  cfg_b.daemon_port = 8200;
  cfg_b.authenticate = true;
  cfg_b.master_key[0] = 0x11;
  OverlayNetwork overlay_a{inet, chain, hosts, cfg_a, sim::Rng{11}};
  OverlayNetwork overlay_b{inet, chain, hosts, cfg_b, sim::Rng{12}};
  overlay_a.start();
  overlay_b.start();
  sim.run_for(3_s);

  auto& dst_a = overlay_a.node(3).connect(50);
  auto& dst_b = overlay_b.node(3).connect(50);
  client::MeasuringSink sink_a{dst_a};
  client::MeasuringSink sink_b{dst_b};

  ServiceSpec it_spec;
  it_spec.link_protocol = LinkProtocol::kITPriority;
  overlay_a.node(0).connect(49).send(Destination::unicast(3, 50), make_payload(100),
                                     ServiceSpec{});
  overlay_b.node(0).connect(49).send(Destination::unicast(3, 50), make_payload(100),
                                     it_spec);
  sim.run_for(1_s);
  EXPECT_EQ(sink_a.received(), 1u);
  EXPECT_EQ(sink_b.received(), 1u);
  // No cross-talk: each overlay saw only its own control plane.
  EXPECT_EQ(overlay_a.node(0).stats().auth_failures, 0u);
  EXPECT_EQ(overlay_b.node(0).stats().auth_failures, 0u);
}

// ---- Socket API ---------------------------------------------------------------------

struct SocketFixture {
  Simulator sim;
  GraphFixture fx;

  SocketFixture() {
    GraphOptions gopts;
    fx = build_graph_fixture(sim, circulant_topology(6), gopts, sim::Rng{13});
    fx.overlay->settle(3_s);
  }
};

TEST(Socket, UnicastSendRecv) {
  SocketFixture f;
  client::OverlaySocket a{f.fx.overlay->node(0), 5000};
  client::OverlaySocket b{f.fx.overlay->node(3), 5001};
  EXPECT_EQ(a.sendto("hello structured overlays", client::unicast_address(3), 5001), 25);
  f.sim.run_for(500_ms);
  const auto got = b.recvfrom();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(std::string(got->data.begin(), got->data.end()), "hello structured overlays");
  EXPECT_EQ(got->from, client::unicast_address(0));
  EXPECT_EQ(got->from_port, 5000);
  EXPECT_GT(got->latency, sim::Duration::zero());
  EXPECT_FALSE(b.recvfrom().has_value());  // drained
}

TEST(Socket, MulticastViaClassDLikeAddress) {
  SocketFixture f;
  const auto group = client::multicast_address(77);
  EXPECT_TRUE(client::is_multicast(group));
  client::OverlaySocket rx1{f.fx.overlay->node(2), 6000};
  client::OverlaySocket rx2{f.fx.overlay->node(4), 6000};
  rx1.join(group);
  rx2.join(group);
  f.sim.run_for(2_s);
  client::OverlaySocket tx{f.fx.overlay->node(0), 6001};
  tx.sendto("feed", group, 6000);
  f.sim.run_for(500_ms);
  EXPECT_EQ(rx1.pending(), 1u);
  EXPECT_EQ(rx2.pending(), 1u);
}

TEST(Socket, AnycastAddressDeliversToNearest) {
  SocketFixture f;
  const auto svc = client::anycast_address(5);
  EXPECT_TRUE(client::is_anycast(svc));
  client::OverlaySocket near_rx{f.fx.overlay->node(1), 6000};
  client::OverlaySocket far_rx{f.fx.overlay->node(3), 6000};
  near_rx.join(svc);
  far_rx.join(svc);
  f.sim.run_for(2_s);
  client::OverlaySocket tx{f.fx.overlay->node(0), 6001};
  for (int i = 0; i < 5; ++i) tx.sendto("rpc", svc, 6000);
  f.sim.run_for(500_ms);
  EXPECT_EQ(near_rx.pending(), 5u);
  EXPECT_EQ(far_rx.pending(), 0u);
}

TEST(Socket, ReceiveBufferBounds) {
  SocketFixture f;
  client::OverlaySocket a{f.fx.overlay->node(0), 5000};
  client::OverlaySocket b{f.fx.overlay->node(1), 5001};
  b.set_receive_buffer(3);
  for (int i = 0; i < 10; ++i) a.sendto("x", client::unicast_address(1), 5001);
  f.sim.run_for(500_ms);
  EXPECT_EQ(b.pending(), 3u);
  EXPECT_EQ(b.dropped_full(), 7u);
}

TEST(Socket, ServiceSpecSelectsProtocol) {
  SocketFixture f;
  // 20% loss on one fiber; a reliable-service socket still gets everything.
  const auto [ra, rb] = f.fx.internet->link_endpoints(f.fx.fiber[0]);
  f.fx.internet->link_dir(f.fx.fiber[0], ra).set_loss_model(net::make_bernoulli(0.2));

  client::OverlaySocket a{f.fx.overlay->node(0), 5000};
  client::OverlaySocket b{f.fx.overlay->node(1), 5001};
  ServiceSpec reliable;
  reliable.link_protocol = LinkProtocol::kReliable;
  a.set_service(reliable);
  for (int i = 0; i < 100; ++i) a.sendto("pkt", client::unicast_address(1), 5001);
  f.sim.run_for(3_s);
  EXPECT_EQ(b.pending(), 100u);
}

}  // namespace
}  // namespace son::overlay
