// §III-A Broadcast-quality video transport.
//
// A broadcaster in NYC feeds a continuous 4 Mbps video stream to five
// affiliate sites. The flow uses overlay multicast + hop-by-hop Reliable
// Data Link with ordered delivery at each destination — the paper's recipe
// for smooth, reliable, efficient distribution. Midway, a loss episode
// degrades one backbone fiber; the hop-by-hop ARQ absorbs it.
#include <cstdio>

#include "client/flow_engine.hpp"
#include "overlay/network.hpp"
#include "sim/stats.hpp"

using namespace son;
using namespace son::sim::literals;

int main() {
  sim::Simulator sim;
  net::Internet internet{sim, sim::Rng{11}};
  const auto map = topo::continental_us();
  const auto underlay = topo::build_dual_isp(internet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{internet, underlay.overlay, underlay.hosts, cfg, sim::Rng{12}};

  constexpr overlay::GroupId kChannel = 7;
  const std::vector<std::pair<overlay::NodeId, const char*>> affiliates{
      {2, "ATL"}, {4, "CHI"}, {5, "DFW"}, {9, "LAX"}, {11, "SEA"}};

  struct Sink {
    std::string name;
    std::uint64_t frames = 0;
    sim::SampleSet latency_ms;
  };
  std::vector<Sink> sinks(affiliates.size());
  for (std::size_t i = 0; i < affiliates.size(); ++i) {
    sinks[i].name = affiliates[i].second;
    auto& ep = net.node(affiliates[i].first).connect(8000);
    ep.join(kChannel);
    ep.set_handler([&s = sinks[i]](const overlay::Message&, sim::Duration lat) {
      ++s.frames;
      s.latency_ms.add(lat.to_millis_f());
    });
  }
  net.settle(3_s);

  // 4 Mbps = ~416 pkt/s of 1200 B. Reliable + ordered, smooth delivery.
  overlay::ServiceSpec spec;
  spec.link_protocol = overlay::LinkProtocol::kReliable;
  spec.ordered = true;
  auto& studio = net.node(0).connect(8001);
  client::FlowEngine camera{sim, studio, {.spec = spec, .payload_bytes = 1200, .rate_pps = 416},
                            overlay::Destination::multicast(kChannel), sim.now(), sim.now() + 30_s};

  // A 5-second 10% loss episode on the NYC-CHI fiber (both ISPs) at t=10 s.
  const auto edge = net.designed_topology().find_edge(0, 4);
  for (const auto links : {&underlay.links_a, &underlay.links_b}) {
    const net::LinkId l = (*links)[edge];
    if (l == net::kInvalidLink) continue;
    const auto [a, b] = internet.link_endpoints(l);
    internet.link_dir(l, a).add_forced_loss_window(sim.now() + 10_s, sim.now() + 15_s, 0.10);
    internet.link_dir(l, b).add_forced_loss_window(sim.now() + 10_s, sim.now() + 15_s, 0.10);
  }

  sim.run_for(32_s);

  std::printf("broadcast-quality video: 30 s at 416 pkt/s (4 Mbps), 5 affiliates,\n");
  std::printf("10%% loss episode on the NYC-CHI fiber during t=[10s,15s):\n\n");
  std::printf("%6s %10s %12s %10s %10s %10s\n", "site", "frames", "complete", "p50 ms",
              "p99 ms", "max ms");
  for (const auto& s : sinks) {
    std::printf("%6s %10llu %11.3f%% %10.2f %10.2f %10.2f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.frames),
                100.0 * static_cast<double>(s.frames) / static_cast<double>(camera.totals().sent),
                s.latency_ms.quantile(0.5), s.latency_ms.quantile(0.99),
                s.latency_ms.max());
  }
  std::printf("\nEvery affiliate receives every frame; the loss episode shows up only\n");
  std::printf("as a slightly longer tail (hop-by-hop recovery, §III-A).\n");
  return 0;
}
