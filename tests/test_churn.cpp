// Churn-driven overlay maintenance: liveness-prober hysteresis, the
// membership database, (incarnation, seq) freshness in the shared state
// databases, departed-origin eviction, and the end-to-end regressions the
// static-membership assumption used to hide (dedup across a restart,
// per-link protocol reset on a peer's restart, per-source-tag IT fairness).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "client/traffic.hpp"
#include "obs/recorder.hpp"
#include "overlay/churn.hpp"
#include "overlay/membership.hpp"
#include "overlay/network.hpp"
#include "overlay/routing.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;

// ---- LivenessProber hysteresis ----------------------------------------------

TEST(LivenessProber, SingleMissDoesNotFlap) {
  LivenessProber p;  // default: down after 3 misses
  EXPECT_TRUE(p.up());
  EXPECT_FALSE(p.on_miss());
  EXPECT_FALSE(p.on_miss());
  EXPECT_TRUE(p.up());
  EXPECT_TRUE(p.on_miss());  // third consecutive miss flips the verdict
  EXPECT_FALSE(p.up());
  EXPECT_FALSE(p.on_miss());  // already down: no second flip
}

TEST(LivenessProber, SuccessResetsMissStreak) {
  LivenessProber p;
  (void)p.on_miss();
  (void)p.on_miss();
  EXPECT_FALSE(p.on_success());  // already up: no flip, streak cleared
  (void)p.on_miss();
  (void)p.on_miss();
  EXPECT_TRUE(p.up());  // the two pre-success misses must not count
  EXPECT_TRUE(p.on_miss());
}

TEST(LivenessProber, UpHysteresisRequiresSuccessStreak) {
  LivenessProber p{LivenessProber::Config{3, 2}};
  (void)p.on_miss();
  (void)p.on_miss();
  ASSERT_TRUE(p.on_miss());
  EXPECT_FALSE(p.on_success());  // one lucky reply is not revival
  EXPECT_FALSE(p.up());
  EXPECT_TRUE(p.on_success());
  EXPECT_TRUE(p.up());
}

TEST(LivenessProber, MissResetsSuccessStreak) {
  LivenessProber p{LivenessProber::Config{3, 2}};
  for (int i = 0; i < 3; ++i) (void)p.on_miss();
  ASSERT_FALSE(p.up());
  EXPECT_FALSE(p.on_success());
  EXPECT_FALSE(p.on_miss());  // breaks the streak while down
  EXPECT_FALSE(p.on_success());
  EXPECT_TRUE(p.on_success());
  EXPECT_TRUE(p.up());
}

TEST(LivenessProber, ResetRestoresOptimism) {
  LivenessProber p;
  for (int i = 0; i < 5; ++i) (void)p.on_miss();
  ASSERT_FALSE(p.up());
  p.reset();
  EXPECT_TRUE(p.up());
  EXPECT_EQ(p.consecutive_misses(), 0u);
}

// ---- MembershipDb -----------------------------------------------------------

TEST(MembershipDb, HeardFromCountsLifetimes) {
  MembershipDb db{4};
  const auto t1 = sim::TimePoint::zero() + 1_s;
  const auto t2 = sim::TimePoint::zero() + 2_s;
  EXPECT_TRUE(db.heard_from(2, 0, t1));  // first contact = join
  EXPECT_EQ(db.entry(2).joins, 1u);
  EXPECT_TRUE(db.entry(2).alive);
  EXPECT_FALSE(db.heard_from(2, 0, t2));  // more evidence, same life
  EXPECT_EQ(db.entry(2).joins, 1u);
  EXPECT_EQ(db.entry(2).last_heard, t2);
  EXPECT_TRUE(db.heard_from(2, 1, t2));  // incarnation bump = rejoin
  EXPECT_EQ(db.entry(2).joins, 2u);
  EXPECT_EQ(db.entry(2).incarnation, 1u);
  EXPECT_EQ(db.alive_count(), 1u);
}

TEST(MembershipDb, OlderIncarnationGhostIgnored) {
  MembershipDb db{4};
  const auto t1 = sim::TimePoint::zero() + 1_s;
  const auto t2 = sim::TimePoint::zero() + 2_s;
  ASSERT_TRUE(db.heard_from(1, 2, t1));
  EXPECT_FALSE(db.heard_from(1, 1, t2));  // pre-crash ghost
  EXPECT_EQ(db.entry(1).incarnation, 2u);
  EXPECT_EQ(db.entry(1).last_heard, t1);  // ghosts are not liveness evidence
}

TEST(MembershipDb, SweepDepartsSilentOriginsAscending) {
  MembershipDb db{5};
  const auto t1 = sim::TimePoint::zero() + 1_s;
  (void)db.heard_from(3, 0, t1);
  (void)db.heard_from(1, 0, t1);
  (void)db.heard_from(4, 0, sim::TimePoint::zero() + 10_s);
  std::vector<NodeId> departed;
  db.sweep(sim::TimePoint::zero() + 5_s, departed);
  EXPECT_EQ(departed, (std::vector<NodeId>{1, 3}));  // deterministic order
  EXPECT_FALSE(db.entry(1).alive);
  EXPECT_TRUE(db.entry(4).alive);
  EXPECT_EQ(db.alive_count(), 1u);
  // Same-incarnation evidence after an eviction is life after death: rejoin.
  EXPECT_TRUE(db.heard_from(1, 0, sim::TimePoint::zero() + 11_s));
  EXPECT_EQ(db.entry(1).joins, 2u);
}

TEST(MembershipDb, OutOfRangeOriginIgnored) {
  MembershipDb db{4};
  EXPECT_FALSE(db.heard_from(99, 0, sim::TimePoint::zero()));
  EXPECT_EQ(db.alive_count(), 0u);
}

// ---- ChurnModel parsing -----------------------------------------------------

TEST(ChurnModel, StringRoundTrip) {
  EXPECT_EQ(churn_model_from_string("poisson"), ChurnModel::kPoisson);
  EXPECT_EQ(churn_model_from_string("periodic"), ChurnModel::kPeriodic);
  EXPECT_EQ(churn_model_from_string("weibull"), std::nullopt);
  EXPECT_STREQ(to_string(ChurnModel::kPoisson), "poisson");
  EXPECT_STREQ(to_string(ChurnModel::kPeriodic), "periodic");
}

// ---- (incarnation, seq) freshness in the shared state DBs -------------------

topo::Graph square() {
  topo::Graph g(4);
  g.add_edge(0, 1, 1);  // bit 0
  g.add_edge(1, 3, 1);  // bit 1
  g.add_edge(0, 2, 3);  // bit 2
  g.add_edge(2, 3, 3);  // bit 3
  return g;
}

TEST(TopologyDbIncarnation, FreshIncarnationLowSeqBeatsOldHighSeq) {
  TopologyDb db{square()};
  ASSERT_TRUE(db.apply({0, 9, {{0, true, 1.0, 0.0}}}));  // life 0, seq 9
  LinkStateAd rejoin{0, 1, {{0, true, 2.0, 0.0}}, 1};    // life 1, seq 1
  EXPECT_TRUE(db.apply(rejoin));
  EXPECT_EQ(db.stored_incarnation(0), 1u);
  EXPECT_EQ(db.stored_seq(0), 1u);
  // A high-seq flood from the previous life, still in flight, is stale.
  LinkStateAd ghost{0, 10, {{0, true, 5.0, 0.0}}, 0};
  EXPECT_FALSE(db.apply(ghost));
  EXPECT_NEAR(db.link_cost(0), 2.0, 1e-9);
}

TEST(TopologyDbIncarnation, EvictOriginDropsReportsKeepsFloor) {
  TopologyDb db{square()};
  LinkStateAd ad{0, 5, {{0, false, 1.0, 0.0}}, 1};
  ASSERT_TRUE(db.apply(ad));
  ASSERT_FALSE(db.link_up(0));
  const std::uint64_t v = db.version();
  EXPECT_TRUE(db.evict_origin(0));
  EXPECT_GT(db.version(), v);  // consumers see the change
  EXPECT_TRUE(db.link_up(0));  // no reports left: design default
  EXPECT_FALSE(db.evict_origin(0));
  // The departed life's floods cannot re-install state...
  EXPECT_FALSE(db.apply(ad));
  LinkStateAd stale{0, 4, {{0, false, 1.0, 0.0}}, 1};
  EXPECT_FALSE(db.apply(stale));
  // ...but genuinely newer evidence (the origin is in fact alive) applies.
  LinkStateAd newer{0, 6, {{0, true, 7.0, 0.0}}, 1};
  EXPECT_TRUE(db.apply(newer));
}

TEST(GroupDbIncarnation, RestartedOriginSupersedesAndEvictKeepsFloor) {
  GroupDb db{4};
  ASSERT_TRUE(db.apply({2, 3, {7}}));
  GroupStateAd rejoin{2, 1, {8}, 1};
  EXPECT_TRUE(db.apply(rejoin));
  EXPECT_FALSE(db.is_member(2, 7));  // previous life's joins are gone
  EXPECT_TRUE(db.is_member(2, 8));
  EXPECT_TRUE(db.evict_origin(2));
  EXPECT_FALSE(db.is_member(2, 8));
  EXPECT_FALSE(db.evict_origin(2));
  EXPECT_FALSE(db.apply(rejoin));  // stale flood of the departed life
  GroupStateAd newer{2, 2, {9}, 1};
  EXPECT_TRUE(db.apply(newer));
  EXPECT_TRUE(db.is_member(2, 9));
}

// ---- Router departed-origin cache eviction ----------------------------------

TEST(RouterCaches, EvictOriginDropsDepartedEntriesOnly) {
  TopologyDb db{square()};
  GroupDb groups{4};
  Router router{0, db, groups};
  groups.apply({2, 1, {7}});
  groups.apply({3, 1, {7}});
  (void)router.multicast_links(2, 7, kInvalidLinkBit);  // tree rooted at 2
  (void)router.multicast_links(1, 7, kInvalidLinkBit);
  ServiceSpec spec;
  spec.scheme = RouteScheme::kDisjointPaths;
  spec.num_paths = 2;
  (void)router.source_mask(spec, 2);  // mask toward 2
  (void)router.source_mask(spec, 3);
  ASSERT_EQ(router.tree_cache_size(), 2u);
  ASSERT_EQ(router.mask_cache_size(), 2u);

  EXPECT_EQ(router.evict_origin(2), 2u);  // its tree root + its mask dst
  EXPECT_EQ(router.tree_cache_size(), 1u);
  EXPECT_EQ(router.mask_cache_size(), 1u);
  EXPECT_EQ(router.evict_origin(2), 0u);  // idempotent
}

// ---- Membership integration: detect, evict, rejoin --------------------------

TEST(MembershipIntegration, CrashedNodeIsDepartedAndRejoinsOnRestart) {
  Simulator sim;
  GraphOptions gopts;
  gopts.node.dead_origin_timeout = 2500_ms;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{31});
  obs::Recorder rec{fx.overlay->size(), 1 << 12};
  rec.attach(sim);
  obs::ScopedRecorder scope{rec};
  fx.overlay->settle(3_s);
  constexpr GroupId kG = 60;
  auto& member = fx.overlay->node(4).connect(10);
  member.join(kG);
  sim.run_for(1_s);
  auto& observer = fx.overlay->node(0);
  ASSERT_TRUE(observer.groups().is_member(4, kG));
  ASSERT_TRUE(observer.membership().entry(4).alive);

  ChurnScript script{*fx.overlay};
  script.crash(sim.now() + 100_ms, 4);
  sim.run_for(5_s);
  // Silence past dead_origin_timeout: departed, and every per-origin trace
  // of it evicted (the group join goes with its clients).
  EXPECT_FALSE(observer.membership().entry(4).alive);
  EXPECT_GE(observer.stats().origin_evictions, 1u);
  EXPECT_FALSE(observer.groups().is_member(4, kG));
  EXPECT_TRUE(std::isinf(observer.router().path_cost_to(4)));

  script.recover(sim.now() + 100_ms, 4);
  sim.run_for(3_s);
  // Fresh incarnation re-floods: readmitted, group join re-learned.
  EXPECT_EQ(fx.overlay->node(4).incarnation(), 1u);
  EXPECT_TRUE(observer.membership().entry(4).alive);
  EXPECT_EQ(observer.membership().entry(4).incarnation, 1u);
  EXPECT_GE(observer.membership().entry(4).joins, 2u);
  EXPECT_TRUE(observer.groups().is_member(4, kG));
  EXPECT_FALSE(std::isinf(observer.router().path_cost_to(4)));

  // The flight recorder saw both membership events: the observer evicting
  // origin 4, and node 4's neighbors resetting their links to its new
  // incarnation.
  const auto records = rec.merged();
  const auto is = [](const obs::EventRecord& r, obs::Category c, auto code) {
    return r.category == static_cast<std::uint8_t>(c) &&
           r.code == static_cast<std::uint8_t>(code);
  };
  EXPECT_TRUE(std::any_of(records.begin(), records.end(), [&](const obs::EventRecord& r) {
    return r.node == 0 && r.a == 4 && is(r, obs::Category::kRoute, obs::RouteEvent::kOriginEvicted);
  }));
  EXPECT_TRUE(std::any_of(records.begin(), records.end(), [&](const obs::EventRecord& r) {
    return r.node != 4 && r.b == 1 && is(r, obs::Category::kLink, obs::LinkEvent::kPeerRestart);
  }));
}

// ---- Regression: dedup across a restart -------------------------------------

// Pre-incarnation, a restarted origin's id counter began again at 1, so its
// new messages collided with its old ids in every receiver's dedup cache and
// the whole second batch was silently dropped. The incarnation byte folded
// into origin ids keeps the lives disjoint.
TEST(RestartRegression, FloodedTrafficSurvivesOriginRestart) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(8), gopts, sim::Rng{32});
  fx.overlay->settle(3_s);
  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(3).connect(2);
  client::MeasuringSink sink{dst};
  ServiceSpec spec;
  spec.scheme = RouteScheme::kFlooding;  // every copy crosses every receiver's dedup
  for (int i = 0; i < 10; ++i) {
    src.send(Destination::unicast(3, 2), make_payload(100), spec);
  }
  sim.run_for(1_s);
  ASSERT_EQ(sink.received(), 10u);

  fx.overlay->node(0).restart();
  sim.run_for(1_s);
  EXPECT_EQ(fx.overlay->node(0).incarnation(), 1u);
  for (int i = 0; i < 10; ++i) {
    src.send(Destination::unicast(3, 2), make_payload(100), spec);
  }
  sim.run_for(2_s);
  EXPECT_EQ(sink.received(), 20u);
  EXPECT_EQ(sink.duplicates(), 0u);
}

// ---- Regression: per-link protocol reset on a peer's restart ----------------

// Pre-incarnation, the receiver's reliable-link window survived its peer's
// restart: the restarted sender's seq 1..5 looked like duplicates of the old
// life's and the ARQ dropped them all (while acking, so no retransmission
// saved them either).
TEST(RestartRegression, ReliableLinkResetsWhenPeerRestarts) {
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 2;
  auto fx = build_chain(sim, opts, sim::Rng{33});
  fx.overlay->settle(3_s);
  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(1).connect(11);
  client::MeasuringSink sink{dst};
  ServiceSpec spec;
  spec.link_protocol = LinkProtocol::kReliable;
  for (int i = 0; i < 5; ++i) {
    src.send(Destination::unicast(1, 11), make_payload(100), spec);
  }
  sim.run_for(1_s);
  ASSERT_EQ(sink.received(), 5u);

  fx.overlay->node(0).restart();
  sim.run_for(1_s);
  for (int i = 0; i < 5; ++i) {
    src.send(Destination::unicast(1, 11), make_payload(100), spec);
  }
  sim.run_for(2_s);
  EXPECT_EQ(sink.received(), 10u);
  EXPECT_GE(fx.overlay->node(1).stats().peer_restarts_seen, 1u);
}

// ---- Regression: a node's own restart keeps its peers' incarnations ---------

// restart() used to zero every link's peer incarnation. The first frame from
// a neighbour that had restarted earlier then counted as one more restart
// and reset that link's endpoints, and until it arrived, ghosts from the
// neighbour's older lives were accepted.
TEST(RestartRegression, OwnRestartKeepsPeerIncarnations) {
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(6), gopts, sim::Rng{34});
  fx.overlay->settle(3_s);
  for (int i = 0; i < 2; ++i) {
    fx.overlay->node(1).restart();
    sim.run_for(1_s);
  }
  const NodeStats& node0 = fx.overlay->node(0).stats();
  ASSERT_EQ(node0.peer_restarts_seen, 2u);

  fx.overlay->node(0).restart();
  sim.run_for(1_s);
  EXPECT_EQ(node0.peer_restarts_seen, 2u);  // node 1 did not restart again
}

// ---- Regression: IT-Priority fairness is per traffic source, not per node ---

// FlowEngine flows share one origin node. With the fairness key collapsed to
// the origin, one aggressive flow monopolized its node's round-robin slot
// and per-source buffer, starving every well-behaved flow from the same
// node. The key is now (origin, source_tag).
TEST(FairnessRegression, AggressiveFlowCannotStarveSiblingsFromSameNode) {
  Simulator sim;
  topo::Graph g(3);  // line: 0 --2ms-- 1 --5ms-- 2
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 5);
  GraphOptions gopts;
  gopts.node.link_protocols.it_egress_msgs_per_sec = 400;
  gopts.node.link_protocols.it_buffer_per_source = 32;
  auto fx = build_graph_fixture(sim, g, gopts, sim::Rng{34});
  fx.overlay->settle(2_s);

  auto& dst = fx.overlay->node(2).connect(50);
  std::map<std::uint32_t, int> got;  // per source_tag deliveries
  dst.set_handler([&](const Message& m, Duration) { ++got[m.hdr.source_tag]; });

  ServiceSpec spec;
  spec.link_protocol = LinkProtocol::kITPriority;
  struct TagFlow {
    Simulator& sim;
    ClientEndpoint& src;
    ServiceSpec spec;
    std::uint32_t tag;
    Duration period;
    sim::TimePoint stop;
    std::uint64_t seq = 0;
    void tick() {
      if (sim.now() >= stop) return;
      (void)src.send_flow(Destination::unicast(2, 50), make_payload(100), spec, tag, ++seq);
      sim.schedule(period, [this]() { tick(); });
    }
  };
  // One endpoint, three flows: an aggressive one at 5x the egress rate and
  // two victims comfortably under their fair share (400/3 per sec).
  auto& src = fx.overlay->node(0).connect(10);
  const sim::TimePoint stop = sim.now() + 8_s;
  std::vector<std::unique_ptr<TagFlow>> flows;
  flows.push_back(std::make_unique<TagFlow>(TagFlow{sim, src, spec, 99, 500_us, stop}));
  flows.push_back(std::make_unique<TagFlow>(TagFlow{sim, src, spec, 1, 20_ms, stop}));
  flows.push_back(std::make_unique<TagFlow>(TagFlow{sim, src, spec, 2, 20_ms, stop}));
  for (auto& f : flows) sim.schedule(1_ms, [p = f.get()]() { p->tick(); });
  sim.run_for(10_s);

  // Victims sent ~400 each; with per-tag fairness they keep essentially all
  // of it. With the origin-only key they got the eviction-survivor residue
  // (~20%), so the bound also discriminates.
  EXPECT_GT(got[1], 340);
  EXPECT_GT(got[2], 340);
  // The aggressor is bounded by the paced egress, not by its send rate.
  EXPECT_LT(got[99], 8 * 400);
  EXPECT_GT(got[99], 100);  // but it does keep its own share
}

}  // namespace
}  // namespace son::overlay
