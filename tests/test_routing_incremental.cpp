// The incremental link-state routing engine's correctness contract:
//
//  * topo::SptEngine repaired through TopologyDb's dirty-edge journal is
//    bit-identical (dist, parent, parent_edge) to a fresh topo::dijkstra on
//    the same weights, under randomized LSA churn across multiple seeds;
//  * an incrementally-refreshed Router answers exactly like a cold one;
//  * TopologyDb::apply rejects stale/duplicate sequence numbers, indexes
//    reports per LinkBit, and journals exactly the edges whose cost moved;
//  * Router evicts stale-version tree/mask cache entries instead of growing
//    without bound;
//  * anycast and multicast tie-breaking is deterministic (the son-analyze
//    determinism contract at the routing level).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "overlay/group_state.hpp"
#include "overlay/link_state.hpp"
#include "overlay/network.hpp"
#include "overlay/routing.hpp"
#include "sim/random.hpp"
#include "topo/graph.hpp"

namespace son::overlay {
namespace {

// Same 4-node square as test_overlay_components: edges
// 0:(0-1,w1) 1:(1-3,w1) 2:(0-2,w3) 3:(2-3,w3).
topo::Graph square() {
  topo::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(2, 3, 3.0);
  return g;
}

// ---- randomized-churn cross-check ------------------------------------------

/// One randomized LSA from `origin`: every adjacent link reported with
/// jittered latency, loss, and an occasional down flap.
LinkStateAd random_ad(const topo::Graph& g, NodeId origin, std::uint64_t seq, sim::Rng& rng) {
  LinkStateAd ad;
  ad.origin = origin;
  ad.seq = seq;
  for (const auto& nbr_edge : g.neighbors(origin)) {
    LinkReport r;
    r.link = static_cast<LinkBit>(nbr_edge.second);
    r.up = !rng.bernoulli(0.12);
    r.latency_ms = 5.0 + 10.0 * rng.uniform();
    r.loss_rate = rng.bernoulli(0.3) ? 0.4 * rng.uniform() : 0.0;
    ad.links.push_back(r);
  }
  return ad;
}

/// 1000 steps of LSA churn; after every accepted ad the incrementally
/// repaired tree must match a fresh full Dijkstra bit-for-bit, and the
/// long-lived Router must answer exactly like a cold one.
void churn_cross_check(std::uint64_t seed) {
  const topo::Graph base = circulant_topology(16);
  TopologyDb db{base};
  GroupDb groups{base.num_nodes()};
  const NodeId self = 0;

  Router incremental{self, db, groups};
  topo::SptEngine engine;
  std::uint64_t engine_version = 0;
  topo::EdgeSet delta;

  sim::Rng rng{seed};
  std::vector<std::uint64_t> seq(base.num_nodes(), 0);

  for (int step = 0; step < 1000; ++step) {
    const auto origin = static_cast<NodeId>(rng.index(base.num_nodes()));
    LinkStateAd ad = random_ad(base, origin, ++seq[origin], rng);
    ASSERT_TRUE(db.apply(ad));
    // Every few steps, a duplicate-content refresh (new seq, same payload):
    // the version bumps but the journal records an empty delta, which the
    // engine must absorb without work.
    if (step % 7 == 3) {
      ad.seq = ++seq[origin];
      ASSERT_TRUE(db.apply(ad));
    }

    // Drive the engine the way Router::refresh_spt does.
    const bool ok = db.changed_edges_since(engine_version, delta);
    const topo::Graph& g = db.current_graph();
    if (!engine.built() || !ok || 2 * delta.size() >= g.num_edges()) {
      engine.full_compute(g, self);
    } else if (!delta.empty()) {
      engine.update(g, delta);
    }
    engine_version = db.version();

    const topo::ShortestPaths fresh = topo::dijkstra(g, self);
    for (topo::NodeIndex v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(engine.dist()[v], fresh.dist[v]) << "seed " << seed << " step " << step
                                                 << " node " << v;
      ASSERT_EQ(engine.parent()[v], fresh.parent[v]) << "seed " << seed << " step " << step
                                                     << " node " << v;
      ASSERT_EQ(engine.parent_edge()[v], fresh.parent_edge[v])
          << "seed " << seed << " step " << step << " node " << v;
    }

    // Router-level equivalence: the long-lived incremental router vs a cold
    // one (which full-computes on first use).
    if (step % 10 == 0) {
      Router cold{self, db, groups};
      for (topo::NodeIndex v = 0; v < g.num_nodes(); ++v) {
        const auto dst = static_cast<NodeId>(v);
        ASSERT_EQ(incremental.next_hop(dst), cold.next_hop(dst))
            << "seed " << seed << " step " << step << " dst " << v;
        ASSERT_EQ(incremental.path_cost_to(dst), cold.path_cost_to(dst))
            << "seed " << seed << " step " << step << " dst " << v;
      }
    } else {
      // Still exercise the lazy next-hop memo on a random destination.
      const auto dst = static_cast<NodeId>(rng.index(base.num_nodes()));
      (void)incremental.next_hop(dst);
    }
  }
}

TEST(IncrementalSpt, MatchesFullDijkstraUnderChurnSeed1) { churn_cross_check(1); }
TEST(IncrementalSpt, MatchesFullDijkstraUnderChurnSeed2) { churn_cross_check(2); }
TEST(IncrementalSpt, MatchesFullDijkstraUnderChurnSeed3) { churn_cross_check(3); }

TEST(IncrementalSpt, QuantizedWeightsKeepCanonicalTieBreaks) {
  // Latencies drawn from a tiny integer set make equal-cost paths the norm
  // rather than the exception, so this churn exercises the canonical
  // (dist, node, edge) tie-breaking that continuous random weights never
  // touch: a changed edge that becomes an exactly-equal-cost alternative
  // must switch the parent exactly when a fresh Dijkstra would.
  const topo::Graph base = circulant_topology(16);
  TopologyDb db{base};
  topo::SptEngine engine;
  topo::EdgeSet delta;
  std::uint64_t version = 0;
  std::vector<std::uint64_t> seq(base.num_nodes(), 0);

  for (std::uint64_t s = 1; s <= 3; ++s) {
    sim::Rng rng{0xbeef0000 + s};
    for (int step = 0; step < 1000; ++step) {
      const auto origin = static_cast<NodeId>(rng.index(base.num_nodes()));
      LinkStateAd ad;
      ad.origin = origin;
      ad.seq = ++seq[origin];
      for (const auto& nbr_edge : base.neighbors(origin)) {
        LinkReport r;
        r.link = static_cast<LinkBit>(nbr_edge.second);
        r.up = !rng.bernoulli(0.05);
        r.latency_ms = 5.0 * (1.0 + static_cast<double>(rng.index(4)));  // 5/10/15/20
        ad.links.push_back(r);
      }
      ASSERT_TRUE(db.apply(ad));

      const bool ok = db.changed_edges_since(version, delta);
      const topo::Graph& g = db.current_graph();
      if (!engine.built() || !ok || 2 * delta.size() >= g.num_edges()) {
        engine.full_compute(g, 0);
      } else if (!delta.empty()) {
        engine.update(g, delta);
      }
      version = db.version();

      const auto fresh = topo::dijkstra(g, 0);
      ASSERT_EQ(engine.dist(), fresh.dist) << "seed " << s << " step " << step;
      ASSERT_EQ(engine.parent(), fresh.parent) << "seed " << s << " step " << step;
      ASSERT_EQ(engine.parent_edge(), fresh.parent_edge) << "seed " << s << " step " << step;
    }
  }
}

TEST(IncrementalSpt, MassChangeAndRecoveryStayExact) {
  // Flip large fractions of the topology at once (loss-aware toggles journal
  // every edge; Router's mass-change fallback path) and verify exactness.
  const topo::Graph base = circulant_topology(12);
  TopologyDb db{base};
  topo::SptEngine engine;
  topo::EdgeSet delta;
  std::uint64_t version = 0;
  sim::Rng rng{99};
  std::uint64_t seq = 0;

  for (int round = 0; round < 50; ++round) {
    if (round % 5 == 4) {
      db.set_loss_aware(round % 10 != 9);
    } else {
      const auto origin = static_cast<NodeId>(rng.index(base.num_nodes()));
      ASSERT_TRUE(db.apply(random_ad(base, origin, ++seq, rng)));
    }
    const bool ok = db.changed_edges_since(version, delta);
    const topo::Graph& g = db.current_graph();
    if (!engine.built() || !ok || 2 * delta.size() >= g.num_edges()) {
      engine.full_compute(g, 0);
    } else if (!delta.empty()) {
      engine.update(g, delta);
    }
    version = db.version();
    const auto fresh = topo::dijkstra(g, 0);
    ASSERT_EQ(engine.dist(), fresh.dist) << "round " << round;
    ASSERT_EQ(engine.parent(), fresh.parent) << "round " << round;
    ASSERT_EQ(engine.parent_edge(), fresh.parent_edge) << "round " << round;
  }
}

// ---- TopologyDb: apply semantics and the change journal --------------------

TEST(TopologyDbApply, RejectsStaleAndDuplicateSeq) {
  TopologyDb db{square()};
  const std::uint64_t v0 = db.version();
  EXPECT_TRUE(db.apply({0, 5, {{0, true, 2.0, 0.0}}}));
  const std::uint64_t v1 = db.version();
  EXPECT_GT(v1, v0);
  // Duplicate seq: rejected, no version bump.
  EXPECT_FALSE(db.apply({0, 5, {{0, true, 9.0, 0.0}}}));
  EXPECT_EQ(db.version(), v1);
  EXPECT_NEAR(db.link_cost(0), 2.0, 1e-9);  // old report kept
  // Stale seq: rejected.
  EXPECT_FALSE(db.apply({0, 4, {{0, false, 2.0, 0.0}}}));
  EXPECT_EQ(db.version(), v1);
  EXPECT_TRUE(db.link_up(0));
  // Unknown origin: rejected.
  EXPECT_FALSE(db.apply({99, 1, {}}));
  EXPECT_EQ(db.stored_seq(0), 5u);
  EXPECT_EQ(db.stored_seq(1), 0u);
}

TEST(TopologyDbApply, IndexedReportLookupMatchesAdContents) {
  TopologyDb db{square()};
  // Node 0 is adjacent to edges 0 and 2; report them out of order, plus a
  // bogus out-of-range bit that must be ignored.
  EXPECT_TRUE(db.apply({0, 1, {{2, true, 7.0, 0.0}, {0, false, 1.0, 0.0}, {200, true, 1.0, 0.0}}}));
  EXPECT_FALSE(db.link_up(0));
  EXPECT_TRUE(db.link_up(2));
  EXPECT_NEAR(db.link_cost(2), 7.0, 1e-9);
  // Duplicate report for one link inside an ad: the first occurrence wins
  // (the behavior of the pre-index linear scan).
  EXPECT_TRUE(db.apply({0, 2, {{0, true, 4.0, 0.0}, {0, true, 8.0, 0.0}}}));
  EXPECT_NEAR(db.link_cost(0), 4.0, 1e-9);
}

TEST(TopologyDbJournal, RecordsExactlyTheChangedEdges) {
  TopologyDb db{square()};
  topo::EdgeSet delta;
  const std::uint64_t v0 = db.version();

  EXPECT_TRUE(db.apply({0, 1, {{0, true, 2.0, 0.0}, {2, true, 3.5, 0.0}}}));
  ASSERT_TRUE(db.changed_edges_since(v0, delta));
  EXPECT_EQ(delta, (topo::EdgeSet{0, 2}));

  // Same content, new seq: version bumps, delta is empty.
  const std::uint64_t v1 = db.version();
  EXPECT_TRUE(db.apply({0, 2, {{0, true, 2.0, 0.0}, {2, true, 3.5, 0.0}}}));
  EXPECT_GT(db.version(), v1);
  ASSERT_TRUE(db.changed_edges_since(v1, delta));
  EXPECT_TRUE(delta.empty());

  // Only one report moved: only that edge is dirty.
  const std::uint64_t v2 = db.version();
  EXPECT_TRUE(db.apply({0, 3, {{0, true, 2.0, 0.0}, {2, false, 3.5, 0.0}}}));
  ASSERT_TRUE(db.changed_edges_since(v2, delta));
  EXPECT_EQ(delta, (topo::EdgeSet{2}));

  // A link dropped from the ad reverts to unreported: dirty again.
  const std::uint64_t v3 = db.version();
  EXPECT_TRUE(db.apply({0, 4, {{0, true, 2.0, 0.0}}}));
  ASSERT_TRUE(db.changed_edges_since(v3, delta));
  EXPECT_EQ(delta, (topo::EdgeSet{2}));
  EXPECT_TRUE(db.link_up(2));

  // Deltas accumulate (deduplicated) across a version span.
  ASSERT_TRUE(db.changed_edges_since(v0, delta));
  EXPECT_EQ(delta, (topo::EdgeSet{0, 2}));
}

TEST(TopologyDbJournal, BoundedWindowForcesFullRecompute) {
  TopologyDb db{square()};
  topo::EdgeSet delta;
  // Version 0 predates the journal (the db is born at version 1).
  EXPECT_FALSE(db.changed_edges_since(0, delta));
  // Age the window out: more accepted ads than the journal retains.
  std::uint64_t seq = 0;
  const std::uint64_t v_start = db.version();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.apply({0, ++seq, {{0, true, 2.0 + (i % 5), 0.0}}}));
  }
  EXPECT_FALSE(db.changed_edges_since(v_start, delta));
  // Recent spans still resolve.
  const std::uint64_t v_recent = db.version();
  ASSERT_TRUE(db.apply({0, ++seq, {{0, true, 1.0, 0.0}}}));
  ASSERT_TRUE(db.changed_edges_since(v_recent, delta));
  EXPECT_EQ(delta, (topo::EdgeSet{0}));
}

TEST(TopologyDbJournal, LossAwareToggleIsAMassChange) {
  TopologyDb db{square()};
  topo::EdgeSet delta;
  const std::uint64_t v = db.version();
  db.set_loss_aware(false);
  ASSERT_TRUE(db.changed_edges_since(v, delta));
  EXPECT_EQ(delta.size(), db.base_graph().num_edges());
}

// ---- Router cache eviction --------------------------------------------------

TEST(RouterCaches, TreeCacheEvictsStaleVersions) {
  TopologyDb db{square()};
  GroupDb groups{4};
  Router router{0, db, groups};
  groups.apply({3, 1, {8}});
  groups.apply({2, 1, {9}});

  (void)router.multicast_links(0, 8, kInvalidLinkBit);
  (void)router.multicast_links(0, 9, kInvalidLinkBit);
  (void)router.multicast_links(1, 8, kInvalidLinkBit);
  EXPECT_EQ(router.tree_cache_size(), 3u);

  // Topology version bump: the next call sweeps all stale entries and
  // rebuilds only the requested one.
  ASSERT_TRUE(db.apply({0, 1, {{0, true, 1.5, 0.0}}}));
  (void)router.multicast_links(0, 8, kInvalidLinkBit);
  EXPECT_EQ(router.tree_cache_size(), 1u);

  // Group version bump sweeps as well.
  (void)router.multicast_links(0, 9, kInvalidLinkBit);
  EXPECT_EQ(router.tree_cache_size(), 2u);
  groups.apply({1, 1, {8}});
  (void)router.multicast_links(0, 8, kInvalidLinkBit);
  EXPECT_EQ(router.tree_cache_size(), 1u);
}

TEST(RouterCaches, MaskCacheEvictsStaleVersions) {
  TopologyDb db{square()};
  GroupDb groups{4};
  Router router{0, db, groups};
  ServiceSpec spec;
  spec.scheme = RouteScheme::kDisjointPaths;
  spec.num_paths = 2;
  (void)router.source_mask(spec, 1);
  (void)router.source_mask(spec, 2);
  (void)router.source_mask(spec, 3);
  EXPECT_EQ(router.mask_cache_size(), 3u);

  ASSERT_TRUE(db.apply({0, 1, {{0, true, 1.5, 0.0}}}));
  (void)router.source_mask(spec, 3);
  EXPECT_EQ(router.mask_cache_size(), 1u);
}

TEST(RouterCaches, BoundedUnderLongChurn) {
  // The regression this PR fixes: unbounded cache growth across a long churn
  // run. Every version bump invalidates, so the steady-state size is the
  // number of keys queried per version, not the run length.
  const topo::Graph base = circulant_topology(8);
  TopologyDb db{base};
  GroupDb groups{base.num_nodes()};
  Router router{0, db, groups};
  groups.apply({3, 1, {8}});
  ServiceSpec spec;
  spec.scheme = RouteScheme::kDisjointPaths;
  spec.num_paths = 2;
  std::uint64_t seq = 0;
  sim::Rng rng{7};
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db.apply(random_ad(base, static_cast<NodeId>(rng.index(8)), ++seq, rng)));
    (void)router.multicast_links(0, 8, kInvalidLinkBit);
    (void)router.source_mask(spec, static_cast<NodeId>(4));
    EXPECT_LE(router.tree_cache_size(), 1u);
    EXPECT_LE(router.mask_cache_size(), 1u);
  }
}

// ---- deterministic tie-breaking ---------------------------------------------

TEST(RoutingDeterminism, AnycastTiesGoToLowestNodeId) {
  // Ring of 4 with equal weights: from node 0, nodes 1 and 3 are both one
  // 10ms hop away. The lowest id must win, regardless of join order.
  topo::Graph ring(4);
  ring.add_edge(0, 1, 10.0);
  ring.add_edge(1, 2, 10.0);
  ring.add_edge(2, 3, 10.0);
  ring.add_edge(3, 0, 10.0);
  {
    TopologyDb db{ring};
    GroupDb groups{4};
    Router router{0, db, groups};
    groups.apply({3, 1, {5}});
    groups.apply({1, 1, {5}});
    EXPECT_EQ(router.anycast_target(5), 1);
  }
  {
    TopologyDb db{ring};
    GroupDb groups{4};
    Router router{0, db, groups};
    groups.apply({1, 1, {5}});  // reversed join order
    groups.apply({3, 1, {5}});
    EXPECT_EQ(router.anycast_target(5), 1);
  }
}

TEST(RoutingDeterminism, MulticastLinksAscendingAndOrderIndependent) {
  const topo::Graph base = circulant_topology(8);
  const std::vector<NodeId> members{2, 5, 7};
  const auto run = [&](bool reversed) {
    TopologyDb db{base};
    GroupDb groups{base.num_nodes()};
    Router router{0, db, groups};
    auto order = members;
    if (reversed) std::reverse(order.begin(), order.end());
    for (const NodeId m : order) groups.apply({m, 1, {6}});
    return std::vector<LinkBit>{router.multicast_links(0, 6, kInvalidLinkBit)};
  };
  const auto a = run(false);
  const auto b = run(true);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace son::overlay
