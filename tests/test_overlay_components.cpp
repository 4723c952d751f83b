#include <gtest/gtest.h>
#include <cmath>

#include "overlay/dedup.hpp"
#include "overlay/group_state.hpp"
#include "overlay/link_state.hpp"
#include "overlay/message.hpp"
#include "overlay/reorder_buffer.hpp"
#include "overlay/routing.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;

topo::Graph square() {
  // 0-1 (1ms), 1-3 (1ms), 0-2 (3ms), 2-3 (3ms)
  topo::Graph g(4);
  g.add_edge(0, 1, 1);  // bit 0
  g.add_edge(1, 3, 1);  // bit 1
  g.add_edge(0, 2, 3);  // bit 2
  g.add_edge(2, 3, 3);  // bit 3
  return g;
}

// ---- TopologyDb -----------------------------------------------------------

TEST(TopologyDb, AppliesNewerRejectsOlder) {
  TopologyDb db{square()};
  LinkStateAd ad;
  ad.origin = 0;
  ad.seq = 5;
  ad.links = {{0, true, 1.0, 0.0}};
  EXPECT_TRUE(db.apply(ad));
  EXPECT_FALSE(db.apply(ad));  // same seq
  ad.seq = 4;
  EXPECT_FALSE(db.apply(ad));  // older
  ad.seq = 6;
  EXPECT_TRUE(db.apply(ad));
  EXPECT_EQ(db.stored_seq(0), 6u);
}

TEST(TopologyDb, LinkDownIfEitherEndpointSaysDown) {
  TopologyDb db{square()};
  EXPECT_TRUE(db.link_up(0));  // unreported: up
  LinkStateAd ad;
  ad.origin = 0;
  ad.seq = 1;
  ad.links = {{0, false, 1.0, 0.0}};
  db.apply(ad);
  EXPECT_FALSE(db.link_up(0));
  // The other endpoint saying "up" does not resurrect it.
  LinkStateAd ad2;
  ad2.origin = 1;
  ad2.seq = 1;
  ad2.links = {{0, true, 1.0, 0.0}};
  db.apply(ad2);
  EXPECT_FALSE(db.link_up(0));
}

TEST(TopologyDb, CostIncludesLossPenalty) {
  TopologyDb db{square()};
  LinkStateAd ad;
  ad.origin = 0;
  ad.seq = 1;
  ad.links = {{0, true, 10.0, 0.0}};
  db.apply(ad);
  EXPECT_NEAR(db.link_cost(0), 10.0, 1e-9);
  ad.seq = 2;
  ad.links = {{0, true, 10.0, 0.5}};  // 50% loss: + rtt*p/(1-p) = 2*10*1 = 20
  db.apply(ad);
  EXPECT_NEAR(db.link_cost(0), 30.0, 1e-9);
  ad.seq = 3;
  ad.links = {{0, false, 10.0, 0.0}};
  db.apply(ad);
  EXPECT_TRUE(std::isinf(db.link_cost(0)));
}

TEST(TopologyDb, WorseEndpointReportWins) {
  TopologyDb db{square()};
  LinkStateAd a{0, 1, {{0, true, 5.0, 0.0}}};
  LinkStateAd b{1, 1, {{0, true, 9.0, 0.0}}};
  db.apply(a);
  db.apply(b);
  EXPECT_NEAR(db.link_cost(0), 9.0, 1e-9);
}

TEST(TopologyDb, CurrentGraphReflectsCosts) {
  TopologyDb db{square()};
  LinkStateAd ad{0, 1, {{0, true, 50.0, 0.0}}};
  db.apply(ad);
  const auto& g = db.current_graph();
  EXPECT_NEAR(g.edge(0).weight, 50.0, 1e-9);
  EXPECT_NEAR(g.edge(2).weight, 3.0, 1e-9);  // unreported: designed weight
}

// ---- GroupDb ----------------------------------------------------------------

TEST(GroupDb, MembershipFloodingSemantics) {
  GroupDb db{4};
  EXPECT_TRUE(db.members_of(7).empty());
  GroupStateAd ad{2, 1, {7, 9}};
  EXPECT_TRUE(db.apply(ad));
  EXPECT_TRUE(db.is_member(2, 7));
  EXPECT_TRUE(db.is_member(2, 9));
  EXPECT_FALSE(db.is_member(2, 8));
  EXPECT_EQ(db.members_of(7), (std::vector<NodeId>{2}));
  // Leaving: newer ad without the group.
  GroupStateAd ad2{2, 2, {9}};
  EXPECT_TRUE(db.apply(ad2));
  EXPECT_FALSE(db.is_member(2, 7));
}

TEST(GroupDb, MultipleMembersSorted) {
  GroupDb db{4};
  db.apply({3, 1, {5}});
  db.apply({1, 1, {5}});
  db.apply({2, 1, {6}});
  EXPECT_EQ(db.members_of(5), (std::vector<NodeId>{1, 3}));
}

// ---- Router ------------------------------------------------------------------

struct RouterFixture {
  TopologyDb topo{square()};
  GroupDb groups{4};
  Router router{0, topo, groups};
};

TEST(Router, NextHopFollowsShortestPath) {
  RouterFixture f;
  EXPECT_EQ(f.router.next_hop(3), 0);  // 0-1-3 cheaper than 0-2-3
  EXPECT_EQ(f.router.next_hop(1), 0);
  EXPECT_EQ(f.router.next_hop(2), 2);
  EXPECT_EQ(f.router.next_hop(0), kInvalidLinkBit);  // self
}

TEST(Router, NextHopReactsToLinkFailure) {
  RouterFixture f;
  LinkStateAd ad{0, 1, {{0, false, 1.0, 0.0}, {2, true, 3.0, 0.0}}};
  f.topo.apply(ad);
  EXPECT_EQ(f.router.next_hop(3), 2);  // reroute via node 2
  EXPECT_EQ(f.router.next_hop(1), 2);  // even node 1 now via 2-3-1
}

TEST(Router, PathCostTracksTopology) {
  RouterFixture f;
  EXPECT_NEAR(f.router.path_cost_to(3), 2.0, 1e-9);
  LinkStateAd ad{0, 1, {{0, false, 1.0, 0.0}}};
  f.topo.apply(ad);
  EXPECT_NEAR(f.router.path_cost_to(3), 6.0, 1e-9);
}

TEST(Router, AnycastPicksNearestMember) {
  RouterFixture f;
  f.groups.apply({2, 1, {42}});
  f.groups.apply({3, 1, {42}});
  EXPECT_EQ(f.router.anycast_target(42), 3);  // cost 2 vs 3
  f.groups.apply({0, 1, {42}});               // self joins
  EXPECT_EQ(f.router.anycast_target(42), 0);
  EXPECT_EQ(f.router.anycast_target(999), kInvalidNode);
}

TEST(Router, MulticastLinksFollowSourceTree) {
  RouterFixture f;
  f.groups.apply({3, 1, {8}});
  f.groups.apply({2, 1, {8}});
  // Tree from 0: 3 via 0-1-3 (bits 0,1), 2 via 0-2 (bit 2).
  const auto links = f.router.multicast_links(0, 8, kInvalidLinkBit);
  EXPECT_EQ(links, (std::vector<LinkBit>{0, 2}));
  // At node 1 (different router instance) the tree forwards 0->1->3.
  Router r1{1, f.topo, f.groups};
  const auto l1 = r1.multicast_links(0, 8, /*arrived_on=*/0);
  EXPECT_EQ(l1, (std::vector<LinkBit>{1}));
}

TEST(Router, MulticastCacheInvalidatesOnVersionChange) {
  RouterFixture f;
  f.groups.apply({3, 1, {8}});
  EXPECT_EQ(f.router.multicast_links(0, 8, kInvalidLinkBit), (std::vector<LinkBit>{0}));
  f.groups.apply({2, 1, {8}});  // 2 joins
  EXPECT_EQ(f.router.multicast_links(0, 8, kInvalidLinkBit),
            (std::vector<LinkBit>{0, 2}));
  LinkStateAd ad{0, 1, {{0, false, 1.0, 0.0}}};
  f.topo.apply(ad);  // link 0 down: everything via node 2
  EXPECT_EQ(f.router.multicast_links(0, 8, kInvalidLinkBit), (std::vector<LinkBit>{2}));
}

TEST(Router, SourceMaskDisjointPaths) {
  RouterFixture f;
  ServiceSpec spec;
  spec.scheme = RouteScheme::kDisjointPaths;
  spec.num_paths = 2;
  const LinkMask m = f.router.source_mask(spec, 3);
  EXPECT_EQ(m, bit_of(0) | bit_of(1) | bit_of(2) | bit_of(3));  // both paths
}

TEST(Router, SourceMaskFloodingIsAllLinks) {
  RouterFixture f;
  ServiceSpec spec;
  spec.scheme = RouteScheme::kFlooding;
  EXPECT_EQ(f.router.source_mask(spec, 3), LinkMask{0b1111});
  // Flooding ignores believed link state (maximal redundancy).
  LinkStateAd ad{0, 1, {{0, false, 1.0, 0.0}}};
  f.topo.apply(ad);
  EXPECT_EQ(f.router.source_mask(spec, 3), LinkMask{0b1111});
}

TEST(Router, AdjacentMaskLinks) {
  RouterFixture f;
  const LinkMask m = bit_of(0) | bit_of(1) | bit_of(3);
  EXPECT_EQ(f.router.adjacent_mask_links(m, kInvalidLinkBit), (std::vector<LinkBit>{0}));
  Router r3{3, f.topo, f.groups};
  EXPECT_EQ(r3.adjacent_mask_links(m, /*arrived_on=*/1), (std::vector<LinkBit>{3}));
}

// ---- DedupCache -----------------------------------------------------------------

TEST(Dedup, DetectsDuplicates) {
  DedupCache d{100};
  EXPECT_FALSE(d.seen_or_insert(1));
  EXPECT_TRUE(d.seen_or_insert(1));
  EXPECT_FALSE(d.seen_or_insert(2));
}

TEST(Dedup, EvictsOldestBeyondCapacity) {
  DedupCache d{3};
  d.seen_or_insert(1);
  d.seen_or_insert(2);
  d.seen_or_insert(3);
  d.seen_or_insert(4);  // evicts 1
  EXPECT_EQ(d.size(), 3u);
  EXPECT_FALSE(d.seen_or_insert(1));  // forgotten -> reinserted
}

// ---- ReorderBuffer ------------------------------------------------------------

struct ReorderFixture {
  Simulator sim;
  std::vector<std::uint64_t> delivered;
  ReorderBuffer buf{sim, 50_ms, [this](const Message& m) {
                      delivered.push_back(m.hdr.flow_seq);
                    }};

  Message msg(std::uint64_t seq) {
    Message m;
    m.hdr.flow_seq = seq;
    return m;
  }
};

TEST(ReorderBuffer, InOrderPassThrough) {
  ReorderFixture f;
  for (std::uint64_t s = 1; s <= 5; ++s) f.buf.push(f.msg(s));
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(ReorderBuffer, ReordersOutOfOrderArrivals) {
  ReorderFixture f;
  f.buf.push(f.msg(1));
  f.buf.push(f.msg(3));
  f.buf.push(f.msg(4));
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{1}));
  f.buf.push(f.msg(2));
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(ReorderBuffer, SkipsGapAfterHoldTimeout) {
  ReorderFixture f;
  f.buf.push(f.msg(1));
  f.buf.push(f.msg(3));
  f.sim.run_for(100_ms);
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(f.buf.stats().skipped_missing, 1u);
}

TEST(ReorderBuffer, LateRecoveredPacketDiscarded) {
  // §IV-A: "If a recovered packet arrives after later packets were already
  // delivered, it is discarded."
  ReorderFixture f;
  f.buf.push(f.msg(1));
  f.buf.push(f.msg(3));
  f.sim.run_for(100_ms);  // gap for 2 abandoned, 3 delivered
  f.buf.push(f.msg(2));   // late recovery
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(f.buf.stats().late_discarded, 1u);
}

TEST(ReorderBuffer, DuplicateHeldMessage) {
  ReorderFixture f;
  f.buf.push(f.msg(2));
  f.buf.push(f.msg(2));
  EXPECT_EQ(f.buf.stats().duplicates, 1u);
  f.buf.push(f.msg(1));
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{1, 2}));
}

TEST(ReorderBuffer, MultipleGapsSequentialTimeouts) {
  ReorderFixture f;
  f.buf.push(f.msg(2));
  f.sim.run_for(20_ms);
  f.buf.push(f.msg(5));
  f.sim.run_for(100_ms);
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{2, 5}));
  EXPECT_EQ(f.buf.stats().skipped_missing, 3u);  // 1, 3, 4
}

// A rebuilt buffer (its node restarted) meets a long-running flow: the
// first seq it sees is far above its floor of 0. It is held, then delivered
// at max_hold with every seq below it counted as skipped.
TEST(ReorderBuffer, FreshBufferHoldsAFarAheadFirstSeq) {
  ReorderFixture f;
  constexpr std::uint64_t kSeq = 10'000'000;
  f.buf.push(f.msg(kSeq));
  f.buf.push(f.msg(kSeq + 1));
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.buf.stats().held, 2u);
  f.sim.run_for(49_ms);
  EXPECT_TRUE(f.delivered.empty());
  f.sim.run_for(2_ms);
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{kSeq, kSeq + 1}));
  EXPECT_EQ(f.buf.stats().skipped_missing, kSeq - 1);
  f.buf.push(f.msg(kSeq + 2));
  EXPECT_EQ(f.delivered.back(), kSeq + 2);
}

// ---- Message helpers -----------------------------------------------------------

TEST(Message, AuthBytesChangeWithHeaderAndPayload) {
  Message m;
  m.hdr.origin = 3;
  m.hdr.origin_id = 77;
  m.payload = make_payload(10, 0x11);
  const auto base = auth_bytes(m);

  Message m2 = m;
  m2.hdr.priority = 9;
  EXPECT_NE(auth_bytes(m2), base);

  Message m3 = m;
  m3.hdr.mask = 0b1010;
  EXPECT_NE(auth_bytes(m3), base);

  Message m4 = m;
  m4.payload = make_payload(10, 0x12);
  EXPECT_NE(auth_bytes(m4), base);

  Message m5 = m;
  EXPECT_EQ(auth_bytes(m5), base);
}

TEST(Message, WireSizeAccounting) {
  Message m;
  m.payload = make_payload(1000);
  EXPECT_EQ(wire_size(m, false), kMessageHeaderBytes + 1000);
  EXPECT_EQ(wire_size(m, true), kMessageHeaderBytes + 1000 + kAuthTagBytes);
  Message empty;
  EXPECT_EQ(wire_size(empty, false), kMessageHeaderBytes);
}

TEST(Message, PayloadSharing) {
  const Payload p = make_payload(100, 0x5A);
  Message a;
  a.payload = p;
  Message b = a;  // copy shares the buffer
  EXPECT_EQ(a.payload.get(), b.payload.get());
  EXPECT_EQ(p.use_count(), 3);
}

}  // namespace
}  // namespace son::overlay
