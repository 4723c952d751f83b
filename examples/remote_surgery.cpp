// §V-A Real-time remote manipulation (remote robotic surgery/ultrasound).
//
// "The roundtrip latency must be no more than about 130ms, translating to a
// one-way latency requirement of 65ms" — far too tight for multi-round
// recovery, so the flow combines the single-shot recovery protocol [6,7]
// with a destination-problem dissemination graph [2]: targeted redundancy
// where the problems are.
#include <cstdio>

#include "client/flow_engine.hpp"
#include "overlay/network.hpp"
#include "sim/stats.hpp"

using namespace son;
using namespace son::sim::literals;

int main() {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(12), gopts,
                                         sim::Rng{41});
  auto& net = *fx.overlay;
  constexpr overlay::NodeId kSurgeon = 0;
  constexpr overlay::NodeId kRobot = 6;  // ~40 ms away: a continent apart

  // The hospital's metro area has recurring trouble: every 700 ms, two of
  // the robot-side fibers degrade to 85% loss for 100 ms.
  const auto& g = net.designed_topology();
  std::vector<net::LinkId> robot_fibers;
  for (const auto& [nbr, e] : g.neighbors(kRobot)) robot_fibers.push_back(fx.fiber[e]);
  for (int burst = 0; burst < 90; ++burst) {
    const auto from = sim::TimePoint::zero() + 3_s + sim::Duration::milliseconds(burst * 700);
    const auto until = from + 100_ms;
    for (const std::size_t idx :
         {static_cast<std::size_t>(burst) % robot_fibers.size(),
          static_cast<std::size_t>(burst + 1) % robot_fibers.size()}) {
      const auto [a, b] = fx.internet->link_endpoints(robot_fibers[idx]);
      fx.internet->link_dir(robot_fibers[idx], a).add_forced_loss_window(from, until, 0.85);
      fx.internet->link_dir(robot_fibers[idx], b).add_forced_loss_window(from, until, 0.85);
    }
  }
  net.settle(3_s);

  // Haptic command stream: 500 Hz, 65 ms one-way deadline, dissemination
  // graph + one-shot recovery.
  auto& surgeon = net.node(kSurgeon).connect(4000);
  auto& robot = net.node(kRobot).connect(4001);

  std::uint64_t on_time = 0, late = 0;
  sim::SampleSet lat_ms;
  robot.set_handler([&](const overlay::Message&, sim::Duration lat) {
    lat_ms.add(lat.to_millis_f());
    (lat <= 65_ms ? on_time : late)++;
  });

  overlay::ServiceSpec haptic;
  haptic.scheme = overlay::RouteScheme::kDissemination;
  haptic.dissem_dst_fanin = 2;
  haptic.link_protocol = overlay::LinkProtocol::kRealtimeSimple;
  haptic.deadline = 65_ms;

  client::FlowEngine hand{sim, surgeon, {.spec = haptic, .payload_bytes = 200, .rate_pps = 500},
                          overlay::Destination::unicast(kRobot, 4001), sim.now(), sim.now() + 60_s};

  // Video/haptic feedback the other way: same service.
  std::uint64_t fb_on_time = 0;
  std::uint64_t fb_total = 0;
  surgeon.set_handler([&](const overlay::Message&, sim::Duration lat) {
    ++fb_total;
    if (lat <= 65_ms) ++fb_on_time;
  });
  client::FlowEngine feedback{sim, robot, {.spec = haptic, .payload_bytes = 400, .rate_pps = 500},
                              overlay::Destination::unicast(kSurgeon, 4000), sim.now(),
                              sim.now() + 60_s};

  sim.run_for(62_s);

  std::printf("remote surgery: 60 s of 500 Hz haptics across a continent (~40 ms),\n");
  std::printf("recurring 2-fiber loss bursts at the hospital side:\n\n");
  std::printf("  commands : %llu sent, %llu within 65 ms (%.4f%%), %llu late/lost\n",
              static_cast<unsigned long long>(hand.totals().sent),
              static_cast<unsigned long long>(on_time),
              100.0 * static_cast<double>(on_time) / static_cast<double>(hand.totals().sent),
              static_cast<unsigned long long>(hand.totals().sent - on_time));
  std::printf("  feedback : %llu sent, %llu delivered within 65 ms (%.4f%%)\n",
              static_cast<unsigned long long>(feedback.totals().sent),
              static_cast<unsigned long long>(fb_on_time),
              100.0 * static_cast<double>(fb_on_time) /
                  static_cast<double>(feedback.totals().sent));
  std::printf("  command latency: p50 %.2f ms, p99 %.2f ms, max %.2f ms\n",
              lat_ms.quantile(0.5), lat_ms.quantile(0.99), lat_ms.max());
  std::printf("\nWithin the 20-25 ms of slack the deadline allows, the dissemination\n");
  std::printf("graph's targeted fan-in rides out the bursts that would kill a single\n");
  std::printf("path or uniform disjoint paths (§V-A, reference [2]).\n");
  return 0;
}
