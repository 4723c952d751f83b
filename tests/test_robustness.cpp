// Robustness: congestion behaviour, failure-injection fuzzing, and
// determinism of whole-overlay runs.
#include <gtest/gtest.h>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"

namespace son {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

// ---- Congestion -----------------------------------------------------------------

TEST(Congestion, OfferedLoadAboveCapacitySheds) {
  // A 4 Mbps bottleneck carrying ~8 Mbps of best-effort video: about half
  // gets through, the rest tail-drops; the survivors see queueing delay up
  // to the 100 ms queue bound.
  Simulator sim;
  overlay::ChainOptions opts;
  opts.n_nodes = 2;
  opts.hop_latency = 10_ms;
  opts.bandwidth_bps = 4e6;
  auto fx = overlay::build_chain(sim, opts, sim::Rng{3});
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(1).connect(2);
  client::MeasuringSink sink{dst};
  overlay::ServiceSpec spec;  // best effort
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 1250, .rate_pps = 800},
                            overlay::Destination::unicast(1, 2), sim.now(), sim.now() + 10_s};
  sim.run_for(12_s);
  const double ratio = sink.delivery_ratio(sender.totals().sent);
  EXPECT_GT(ratio, 0.35);
  EXPECT_LT(ratio, 0.65);
  // Queueing delay shows up in the latency tail, bounded by max_queue_delay
  // (plus propagation and per-packet serialization on each 4 Mbps link).
  EXPECT_GT(sink.latencies_ms().quantile(0.99), 80.0);
  EXPECT_LT(sink.latencies_ms().max(), 10.0 + 100.0 + 20.0);
}

TEST(Congestion, TwoFlowsShareBottleneckRoughlyEqually) {
  Simulator sim;
  overlay::ChainOptions opts;
  opts.n_nodes = 2;
  opts.hop_latency = 5_ms;
  opts.bandwidth_bps = 4e6;
  auto fx = overlay::build_chain(sim, opts, sim::Rng{4});
  fx.overlay->settle(3_s);

  auto& c1 = fx.overlay->node(0).connect(1);
  auto& c2 = fx.overlay->node(0).connect(2);
  auto& d1 = fx.overlay->node(1).connect(11);
  auto& d2 = fx.overlay->node(1).connect(12);
  client::MeasuringSink s1{d1}, s2{d2};
  overlay::ServiceSpec spec;
  // Poisson arrivals: synchronized CBR flows phase-lock at a saturated
  // tail-drop bottleneck; random arrivals expose the statistical sharing.
  client::FlowEngine f1{sim, c1,
                        {.spec = spec, .payload_bytes = 1250, .rate_pps = 400, .poisson = true},
                        overlay::Destination::unicast(1, 11), sim.now(), sim.now() + 10_s,
                        sim::Rng{91}};
  client::FlowEngine f2{sim, c2,
                        {.spec = spec, .payload_bytes = 1250, .rate_pps = 400, .poisson = true},
                        overlay::Destination::unicast(1, 12), sim.now(), sim.now() + 10_s,
                        sim::Rng{92}};
  sim.run_for(12_s);
  const double r1 = s1.delivery_ratio(f1.totals().sent);
  const double r2 = s2.delivery_ratio(f2.totals().sent);
  EXPECT_NEAR(r1, r2, 0.10);  // equal offered load -> similar shares
}

// ---- Failure-injection fuzz ---------------------------------------------------------

TEST(Chaos, RandomFailuresNeverWedgeTheOverlay) {
  // 60 s of random fiber cuts/repairs and node crash/recoveries on the US
  // map while a reliable flow runs. Invariants: the run completes, no
  // duplicates reach the client, and once everything heals the flow is
  // fully functional again.
  Simulator sim;
  net::Internet inet{sim, sim::Rng{5}};
  const auto map = topo::continental_us();
  const auto u = topo::build_dual_isp(inet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{inet, u.overlay, u.hosts, cfg, sim::Rng{6}};
  net.settle(3_s);

  auto& src = net.node(0).connect(1);
  auto& dst = net.node(9).connect(2);
  client::MeasuringSink sink{dst};
  overlay::ServiceSpec spec;
  spec.link_protocol = overlay::LinkProtocol::kReliable;
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 400, .rate_pps = 200},
                            overlay::Destination::unicast(9, 2), sim.now(), sim.now() + 60_s};

  sim::Rng chaos{7};
  for (int ev = 0; ev < 40; ++ev) {
    const auto at = Duration::from_millis_f(chaos.uniform() * 50'000.0);
    const std::size_t edge = chaos.index(map.edges.size());
    const bool isp_a = chaos.bernoulli(0.5);
    const net::LinkId link = isp_a ? u.links_a[edge] : u.links_b[edge];
    const auto repair = at + Duration::from_millis_f(500 + chaos.uniform() * 4000);
    sim.schedule_at(TimePoint::zero() + 3_s + at,
                    [&inet, link]() { inet.set_link_up(link, false); });
    sim.schedule_at(TimePoint::zero() + 3_s + repair,
                    [&inet, link]() { inet.set_link_up(link, true); });
  }
  // Node crashes (never the endpoints).
  for (int ev = 0; ev < 6; ++ev) {
    const auto at = Duration::from_millis_f(chaos.uniform() * 45'000.0);
    const auto node = static_cast<overlay::NodeId>(1 + chaos.index(8));
    const auto back = at + Duration::from_millis_f(1000 + chaos.uniform() * 5000);
    if (node == 9) continue;
    sim.schedule_at(TimePoint::zero() + 3_s + at,
                    [&net, node]() { net.node(node).set_crashed(true); });
    sim.schedule_at(TimePoint::zero() + 3_s + back,
                    [&net, node]() { net.node(node).set_crashed(false); });
  }
  sim.run_for(70_s);

  EXPECT_EQ(sink.duplicates(), 0u);
  EXPECT_GT(sink.delivery_ratio(sender.totals().sent), 0.85);

  // After the storm: the overlay is healthy again end-to-end.
  auto& probe_dst = net.node(9).connect(3);
  client::MeasuringSink probe_sink{probe_dst};
  for (int i = 0; i < 10; ++i) {
    src.send(overlay::Destination::unicast(9, 3), overlay::make_payload(100), spec);
  }
  sim.run_for(2_s);
  EXPECT_EQ(probe_sink.received(), 10u);
}

// ---- Determinism -----------------------------------------------------------------------

TEST(Determinism, IdenticalSeedsIdenticalRuns) {
  const auto run = []() {
    Simulator sim;
    net::Internet inet{sim, sim::Rng{42}};
    const auto map = topo::continental_us();
    const auto u = topo::build_dual_isp(inet, map, topo::DualIspOptions{});
    overlay::NodeConfig cfg;
    overlay::OverlayNetwork net{inet, u.overlay, u.hosts, cfg, sim::Rng{43}};
    net.settle(3_s);
    auto& src = net.node(0).connect(1);
    auto& dst = net.node(9).connect(2);
    std::vector<std::int64_t> arrival_ns;
    dst.set_handler([&](const overlay::Message&, Duration) {
      arrival_ns.push_back(sim.now().ns());
    });
    // Loss makes the runs interesting (retransmissions, timers).
    const auto [a, b] = inet.link_endpoints(u.links_a[1]);
    inet.link_dir(u.links_a[1], a).set_loss_model(net::make_bernoulli(0.05));
    overlay::ServiceSpec spec;
    spec.link_protocol = overlay::LinkProtocol::kReliable;
    client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 700, .rate_pps = 500},
                              overlay::Destination::unicast(9, 2), sim.now(), sim.now() + 5_s};
    sim.run_for(8_s);
    return arrival_ns;
  };
  const auto r1 = run();
  const auto r2 = run();
  ASSERT_FALSE(r1.empty());
  EXPECT_EQ(r1, r2);
}

}  // namespace
}  // namespace son
