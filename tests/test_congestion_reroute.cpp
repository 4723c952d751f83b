// Cross-traffic congestion and the overlay's reaction to it — the paper's
// contention motivation made concrete: the overlay provides "predictable
// service" over a contended Internet by measuring and routing around
// congestion it did not cause.
#include <gtest/gtest.h>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "net/cross_traffic.hpp"
#include "overlay/network.hpp"

namespace son {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

TEST(CrossTraffic, SaturatesAndDropsAtTheLink) {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{1}};
  const auto isp = inet.add_isp("one");
  const auto r1 = inet.add_router(isp, "r1");
  const auto r2 = inet.add_router(isp, "r2");
  net::LinkConfig thin;
  thin.prop_delay = 5_ms;
  thin.bandwidth_bps = 10e6;
  thin.max_queue_delay = 20_ms;
  const auto link = inet.add_link(r1, r2, thin);

  net::CrossTraffic::Options opts;
  opts.link = link;
  opts.from = r1;
  opts.rate_bps = 20e6;  // 2x the link
  opts.start = TimePoint::zero();
  opts.stop = TimePoint::zero() + 5_s;
  net::CrossTraffic bg{sim, inet, opts, sim::Rng{2}};
  sim.run_for(6_s);

  EXPECT_GT(bg.sent(), 9000u);  // ~10.4 kpps offered
  const double through = static_cast<double>(bg.received()) / static_cast<double>(bg.sent());
  EXPECT_GT(through, 0.40);
  EXPECT_LT(through, 0.60);  // ~half survives a 2x-offered link
}

TEST(CrossTraffic, BelowCapacityIsHarmless) {
  Simulator sim;
  net::Internet inet{sim, sim::Rng{3}};
  const auto isp = inet.add_isp("one");
  const auto r1 = inet.add_router(isp, "r1");
  const auto r2 = inet.add_router(isp, "r2");
  net::LinkConfig thin;
  thin.prop_delay = 5_ms;
  thin.bandwidth_bps = 10e6;
  const auto link = inet.add_link(r1, r2, thin);
  net::CrossTraffic::Options opts;
  opts.link = link;
  opts.from = r1;
  opts.rate_bps = 3e6;
  opts.start = TimePoint::zero();
  opts.stop = TimePoint::zero() + 5_s;
  net::CrossTraffic bg{sim, inet, opts, sim::Rng{4}};
  sim.run_for(6_s);
  EXPECT_EQ(bg.received(), bg.sent());
}

TEST(CongestionReroute, OverlayRoutesAroundContendedLink) {
  // Triangle overlay: direct 0-1 fiber is thin (25 Mbps); detour 0-2-1 is
  // fat but longer. At t=5 s third-party cross-traffic floods the direct
  // fiber at 2x capacity. The overlay's hellos see the queue drops as loss,
  // the loss-aware cost metric kicks in, and the flow moves to the detour —
  // predictable service over a contended Internet.
  Simulator sim;
  net::Internet inet{sim, sim::Rng{5}};
  const auto isp = inet.add_isp("one");
  const auto r0 = inet.add_router(isp, "r0");
  const auto r1 = inet.add_router(isp, "r1");
  const auto r2 = inet.add_router(isp, "r2");
  net::LinkConfig thin;
  thin.prop_delay = 10_ms;
  thin.bandwidth_bps = 25e6;
  thin.max_queue_delay = 20_ms;
  const auto direct = inet.add_link(r0, r1, thin);
  net::LinkConfig fat;
  fat.prop_delay = 8_ms;
  fat.bandwidth_bps = 1e9;
  inet.add_link(r0, r2, fat);
  inet.add_link(r2, r1, fat);

  std::vector<net::HostId> hosts;
  net::LinkConfig access;
  access.prop_delay = sim::Duration::microseconds(50);
  access.bandwidth_bps = 1e9;
  for (const auto r : {r0, r1, r2}) {
    hosts.push_back(inet.add_host("h" + std::to_string(r)));
    inet.attach_host(hosts.back(), r, access);
  }
  topo::Graph g(3);
  g.add_edge(0, 1, 10.0);  // bit 0: rides the thin fiber
  g.add_edge(0, 2, 8.0);
  g.add_edge(2, 1, 8.0);
  overlay::NodeConfig cfg;  // loss-aware routing on (the default)
  overlay::OverlayNetwork net{inet, g, hosts, cfg, sim::Rng{6}};
  net.settle(3_s);

  auto& src = net.node(0).connect(1);
  auto& dst = net.node(1).connect(2);
  client::MeasuringSink sink{dst};
  std::uint64_t received_late_phase = 0;
  sink.on_message([&](const overlay::Message& m, Duration) {
    if (m.hdr.origin_time >= TimePoint::zero() + 12_s) ++received_late_phase;
  });
  overlay::ServiceSpec spec;  // best effort: only routing protects it
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 400, .rate_pps = 500},
                            overlay::Destination::unicast(1, 2), sim.now(), sim.now() + 27_s};

  // Background flood on the direct fiber from t=5s to t=30s.
  net::CrossTraffic::Options xopts;
  xopts.link = direct;
  xopts.from = r0;
  xopts.rate_bps = 250e6;
  xopts.start = TimePoint::zero() + 5_s;
  xopts.stop = TimePoint::zero() + 30_s;
  net::CrossTraffic bg{sim, inet, xopts, sim::Rng{7}};

  sim.run_for(30_s);

  // The overlay moved off the congested link...
  EXPECT_NE(net.node(0).router().next_hop(1), 0);
  // ...and service in the steady (post-reroute) phase is clean: messages
  // originated from t=12 s on (sent 500/s until t=30 s) all arrive, with no
  // queueing inflation (the detour is 16 ms + processing).
  const std::uint64_t late_sent = 500 * 18;
  EXPECT_GT(static_cast<double>(received_late_phase) / static_cast<double>(late_sent), 0.995);
  EXPECT_LT(sink.latencies_ms().quantile(0.99), 20.0);
}

TEST(CongestionReroute, QueueInflationAloneAlsoTriggersReroute) {
  // Identical scenario with the loss-aware metric DISABLED. Congestion is
  // visible to the hellos TWICE — as loss (queue drops) and as latency
  // (queueing delay inflates RTT) — so even latency-only routing escapes
  // the contended link while the flood lasts, and returns to the direct
  // link once the congestion clears and the measured RTT decays. (The
  // ablation that isolates the loss term is ABL-COST in bench_ablations,
  // where loss is injected WITHOUT queueing.)
  Simulator sim;
  net::Internet inet{sim, sim::Rng{8}};
  const auto isp = inet.add_isp("one");
  const auto r0 = inet.add_router(isp, "r0");
  const auto r1 = inet.add_router(isp, "r1");
  const auto r2 = inet.add_router(isp, "r2");
  net::LinkConfig thin;
  thin.prop_delay = 10_ms;
  thin.bandwidth_bps = 25e6;
  thin.max_queue_delay = 20_ms;
  const auto direct = inet.add_link(r0, r1, thin);
  net::LinkConfig fat;
  fat.prop_delay = 8_ms;
  fat.bandwidth_bps = 1e9;
  inet.add_link(r0, r2, fat);
  inet.add_link(r2, r1, fat);
  std::vector<net::HostId> hosts;
  net::LinkConfig access;
  access.prop_delay = sim::Duration::microseconds(50);
  access.bandwidth_bps = 1e9;
  for (const auto r : {r0, r1, r2}) {
    hosts.push_back(inet.add_host("h" + std::to_string(r)));
    inet.attach_host(hosts.back(), r, access);
  }
  topo::Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 2, 8.0);
  g.add_edge(2, 1, 8.0);
  overlay::NodeConfig cfg;
  cfg.loss_aware_routing = false;  // ablation
  overlay::OverlayNetwork net{inet, g, hosts, cfg, sim::Rng{9}};
  net.settle(3_s);

  auto& src = net.node(0).connect(1);
  auto& dst = net.node(1).connect(2);
  client::MeasuringSink sink{dst};
  std::uint64_t received_late_phase = 0;
  sink.on_message([&](const overlay::Message& m, Duration) {
    if (m.hdr.origin_time >= TimePoint::zero() + 12_s) ++received_late_phase;
  });
  overlay::ServiceSpec spec;
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 400, .rate_pps = 500},
                            overlay::Destination::unicast(1, 2), sim.now(), sim.now() + 27_s};
  net::CrossTraffic::Options xopts;
  xopts.link = direct;
  xopts.from = r0;
  xopts.rate_bps = 250e6;
  xopts.start = TimePoint::zero() + 5_s;
  xopts.stop = TimePoint::zero() + 30_s;
  net::CrossTraffic bg{sim, inet, xopts, sim::Rng{10}};

  // Mid-flood: the RTT-inflated direct link must have been abandoned.
  overlay::LinkBit mid_flood_hop = 0;
  sim.schedule_at(TimePoint::zero() + 20_s,
                  [&]() { mid_flood_hop = net.node(0).router().next_hop(1); });
  sim.run_for(30_s);

  EXPECT_NE(mid_flood_hop, 0);  // detoured while congested
  // After the flood ends (t=30 s) the hello RTT decays and the flow returns
  // to the direct link.
  EXPECT_EQ(net.node(0).router().next_hop(1), 0);
  // Service stayed clean throughout the steady phase.
  const std::uint64_t late_sent = 500 * 18;
  EXPECT_GT(static_cast<double>(received_late_phase) / static_cast<double>(late_sent), 0.99);
}

}  // namespace
}  // namespace son
