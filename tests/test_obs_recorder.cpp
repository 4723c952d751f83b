// Flight recorder: ring semantics, deterministic merge order, macro cost
// contract (arguments unevaluated when disabled), trace-file round trip,
// a node's channel-failover record, and a pinned end-to-end path trace for
// a k=2 disjoint-path flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "client/traffic.hpp"
#include "obs/recorder.hpp"
#include "overlay/network.hpp"
#include "sim/simulator.hpp"

namespace son::obs {
namespace {

using namespace son::sim::literals;
using sim::Simulator;

TEST(ObsRecorder, MergesChronologicallyWithNodeOrderTies) {
  Simulator sim;
  Recorder rec{3, 8};
  rec.attach(sim);
  // Two records at t=0 written in REVERSE node order, one later record.
  rec.record(2, Category::kMark, 0, 22, 0);
  rec.record(0, Category::kMark, 0, 11, 0);
  sim.schedule(5_ms, [&]() { rec.record(1, Category::kMark, 0, 33, 0); });
  sim.run();

  const auto m = rec.merged();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].a, 11u);  // t=0 tie broken by node index: node 0 first
  EXPECT_EQ(m[1].a, 22u);
  EXPECT_EQ(m[2].a, 33u);
  EXPECT_EQ(m[2].t_ns, 5'000'000);
}

TEST(ObsRecorder, RingOverflowKeepsTheRecentPast) {
  Recorder rec{1, 4};
  for (std::uint64_t i = 0; i < 10; ++i) rec.record(0, Category::kMark, 0, i, 0);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.overwritten(), 6u);
  const auto m = rec.merged();
  ASSERT_EQ(m.size(), 4u);  // only the newest ring_capacity records survive
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(m[i].a, 6 + i);
}

TEST(ObsRecorder, OutOfRangeNodeGoesToSystemRing) {
  Recorder rec{2, 4};
  rec.record(kSystemNode, Category::kMark, 0, 1, 0);
  rec.record(7, Category::kMark, 0, 2, 0);  // beyond num_nodes: system ring too
  EXPECT_EQ(rec.total_recorded(), 2u);
  EXPECT_EQ(rec.merged().size(), 2u);
}

TEST(ObsRecorder, MacroArgumentsNotEvaluatedWhenDisabled) {
  ASSERT_EQ(Recorder::current(), nullptr);
  int evals = 0;
  SON_OBS(0, Category::kMark, 0, static_cast<std::uint64_t>(++evals), 0);
  EXPECT_EQ(evals, 0);  // disabled: single branch, operands untouched

  Recorder rec{1, 4};
  {
    ScopedRecorder scope{rec};
    ASSERT_EQ(Recorder::current(), &rec);
    SON_OBS(0, Category::kMark, 0, static_cast<std::uint64_t>(++evals), 0);
  }
  EXPECT_EQ(evals, 1);
  EXPECT_EQ(Recorder::current(), nullptr);
  EXPECT_EQ(rec.total_recorded(), 1u);
}

TEST(ObsRecorder, PathSamplingFiltersUnsampledOrigins) {
  Recorder rec{2, 8};
  rec.sample_origin(100);
  rec.record_path(100, 0, HopKind::kOrigin, 0);
  rec.record_path(200, 0, HopKind::kOrigin, 0);  // unsampled: dropped
  EXPECT_EQ(rec.total_recorded(), 1u);
  EXPECT_EQ(rec.path(100).hops.size(), 1u);
  EXPECT_TRUE(rec.path(200).empty());
}

TEST(ObsRecorder, TraceFileRoundTrip) {
  Simulator sim;
  Recorder rec{2, 8};
  rec.attach(sim);
  rec.record(0, Category::kMark, 3, 7, 9);
  rec.record(1, Category::kDrop, 1, 5, 6);
  const std::string path = testing::TempDir() + "son_obs_roundtrip.trace";
  ASSERT_TRUE(rec.write(path));

  const auto back = Recorder::read(path);
  ASSERT_TRUE(back.has_value());
  const auto orig = rec.merged();
  ASSERT_EQ(back->size(), orig.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&(*back)[i], &orig[i], sizeof(EventRecord)));
  }
  std::remove(path.c_str());
}

TEST(ObsRecorder, ReadRejectsForeignFiles) {
  const std::string path = testing::TempDir() + "son_obs_garbage.trace";
  {
    std::ofstream f{path};
    f << "definitely not a trace file";
  }
  EXPECT_FALSE(Recorder::read(path).has_value());
  EXPECT_FALSE(Recorder::read(testing::TempDir() + "does_not_exist.trace").has_value());
  std::remove(path.c_str());
}

// ---- Node records -----------------------------------------------------------

TEST(ObsRecorder, NodeRecordsChannelFailover) {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{1}};
  const auto map = topo::continental_us();
  const auto u = topo::build_dual_isp(inet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{inet, u.overlay, u.hosts, cfg, sim::Rng{2}};
  net.settle(3_s);

  Recorder rec{net.size(), 1 << 10};
  rec.attach(sim);
  ScopedRecorder scope{rec};
  const std::uint64_t failovers_before = net.node(0).stats().link_failovers;
  const sim::TimePoint cut = sim.now();
  inet.set_link_up(u.links_a[0], false);  // force channel failover on link 0
  sim.run_for(2_s);

  const auto m = rec.merged();
  const auto at_node0 = std::count_if(m.begin(), m.end(), [&](const EventRecord& r) {
    return r.node == 0 && r.category == static_cast<std::uint8_t>(Category::kLink) &&
           r.code == static_cast<std::uint8_t>(LinkEvent::kFailover) && r.t_ns >= cut.ns();
  });
  EXPECT_GE(at_node0, 1);
  // One record per failover the node counts: the record and the counter
  // describe the same events.
  EXPECT_EQ(static_cast<std::uint64_t>(at_node0),
            net.node(0).stats().link_failovers - failovers_before);
}

// ---- End-to-end path trace --------------------------------------------------

TEST(ObsRecorder, PathTracePinsDisjointPathFlowThroughDiamond) {
  // Diamond overlay: 0-1-3 (5ms legs) and 0-2-3 (10ms legs). A k=2
  // disjoint-path unicast floods the two-path link mask: one copy down each
  // side. The fast copy delivers at node 3 and (mask semantics) continues
  // onto the remaining mask edge back toward node 2; that echo and the slow
  // original both end in dedup drops. The sampled trace pins the whole
  // journey, echoes included.
  Simulator sim;
  topo::Graph g{4};
  g.add_edge(0, 1, 5);
  g.add_edge(1, 3, 5);
  g.add_edge(0, 2, 10);
  g.add_edge(2, 3, 10);
  overlay::GraphFixture fx = overlay::build_graph_fixture(sim, g, {}, sim::Rng{5});
  fx.overlay->settle(3_s);

  Recorder rec{4, 1 << 12};
  rec.attach(sim);
  ScopedRecorder scope{rec};
  const std::uint64_t oid = 1;  // node 0's first client message: (0 << 48) | 1
  rec.sample_origin(oid);

  auto& src = fx.overlay->node(0).connect(100);
  auto& dst = fx.overlay->node(3).connect(200);
  client::MeasuringSink sink{dst};
  overlay::ServiceSpec spec;
  spec.scheme = overlay::RouteScheme::kDisjointPaths;
  spec.num_paths = 2;
  const sim::TimePoint t0 = sim.now();
  ASSERT_TRUE(src.send(overlay::Destination::unicast(3, 200), overlay::make_payload(100), spec));
  sim.run_for(1_s);
  ASSERT_EQ(sink.received(), 1u);

  const PathTrace trace = rec.path(oid);
  ASSERT_EQ(trace.hops.size(), 9u);
  const HopKind kinds[] = {HopKind::kOrigin,    HopKind::kForward,  HopKind::kForward,
                           HopKind::kForward,   HopKind::kForward,  HopKind::kDeliver,
                           HopKind::kForward,   HopKind::kDropDedup, HopKind::kDropDedup};
  const std::uint16_t nodes[] = {0, 0, 0, 1, 2, 3, 3, 3, 2};
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(trace.hops[i].kind, kinds[i]) << "hop " << i;
    EXPECT_EQ(trace.hops[i].node, nodes[i]) << "hop " << i;
  }
  // The source fans out on two DIFFERENT overlay links.
  EXPECT_NE(trace.hops[1].link, trace.hops[2].link);
  // Fast side delivers at ~10ms; the slow copy (at node 3) and the echo the
  // destination pushed back (at node 2) are both suppressed at ~20ms.
  const auto since = [&](std::size_t i) { return (trace.hops[i].time - t0).to_millis_f(); };
  EXPECT_GE(since(5), 10.0);
  EXPECT_LT(since(5), 12.0);
  EXPECT_GE(since(7), 20.0);
  EXPECT_LT(since(7), 22.0);
  EXPECT_GE(since(8), 20.0);
  EXPECT_LT(since(8), 22.0);
}

}  // namespace
}  // namespace son::obs
