// §II-D Cost and deployment: scaling out with clusters and parallel overlays.
//
// "Depending on the traffic load, a single computer may not be able to
// provide the necessary processing at line speed. To deal with this issue,
// additional processing resources can be deployed as clusters of computers
// running in the data centers. Each computer in a cluster can act as a node
// in one or several overlays, serving a subset of the total traffic."
//
// Three data centers in a line; each hosts a cluster of two machines. Two
// 12 Mbps video feeds must cross from site 0 to site 2, but one machine's
// NIC only handles ~20 Mbps. A single overlay funnels both feeds through
// one machine per site and saturates; running a SECOND parallel overlay on
// the clusters' other machines (same fiber, different daemon port) and
// sharding the feeds across the two overlays restores line-rate service.
#include <cstdio>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"

using namespace son;
using namespace son::sim::literals;

namespace {

struct Deployment {
  sim::Simulator sim;
  std::unique_ptr<net::Internet> inet;
  std::vector<net::HostId> machine_a;  // one per site
  std::vector<net::HostId> machine_b;
  std::unique_ptr<overlay::OverlayNetwork> overlay_a;
  std::unique_ptr<overlay::OverlayNetwork> overlay_b;  // only in cluster mode

  explicit Deployment(bool cluster) {
    inet = std::make_unique<net::Internet>(sim, sim::Rng{81});
    const auto isp = inet->add_isp("one");
    std::vector<net::RouterId> routers;
    net::LinkConfig access;
    access.prop_delay = sim::Duration::microseconds(100);
    access.bandwidth_bps = 20e6;  // the per-machine bottleneck
    access.max_queue_delay = 30_ms;
    for (int site = 0; site < 3; ++site) {
      routers.push_back(inet->add_router(isp, "r" + std::to_string(site)));
      machine_a.push_back(inet->add_host("site" + std::to_string(site) + "/a"));
      machine_b.push_back(inet->add_host("site" + std::to_string(site) + "/b"));
      inet->attach_host(machine_a.back(), routers.back(), access);
      inet->attach_host(machine_b.back(), routers.back(), access);
    }
    net::LinkConfig fiber;
    fiber.prop_delay = 10_ms;
    fiber.bandwidth_bps = 10e9;  // the backbone is NOT the bottleneck
    inet->add_link(routers[0], routers[1], fiber);
    inet->add_link(routers[1], routers[2], fiber);

    topo::Graph chain(3);
    chain.add_edge(0, 1, 10.0);
    chain.add_edge(1, 2, 10.0);
    overlay::NodeConfig cfg_a;
    overlay_a = std::make_unique<overlay::OverlayNetwork>(*inet, chain, machine_a, cfg_a,
                                                          sim::Rng{82});
    overlay_a->start();
    if (cluster) {
      overlay::NodeConfig cfg_b;
      cfg_b.daemon_port = 8200;  // second overlay, second machine, same fiber
      overlay_b = std::make_unique<overlay::OverlayNetwork>(*inet, chain, machine_b, cfg_b,
                                                            sim::Rng{83});
      overlay_b->start();
    }
    sim.run_for(3_s);
  }
};

}  // namespace

int main() {
  std::printf("cluster scale-out (§II-D): two 12 Mbps feeds across 20 Mbps machines\n\n");
  std::printf("%22s %12s %12s %12s %12s\n", "deployment", "feed1", "feed1 p99", "feed2",
              "feed2 p99");

  for (const bool cluster : {false, true}) {
    Deployment d{cluster};
    // Feed i: 1250 pkt/s x 1200 B = 12 Mbps, site 0 -> site 2.
    overlay::OverlayNetwork* nets[2] = {
        d.overlay_a.get(), cluster ? d.overlay_b.get() : d.overlay_a.get()};
    std::vector<std::unique_ptr<client::FlowEngine>> senders;
    std::vector<std::unique_ptr<client::MeasuringSink>> sinks;
    for (int feed = 0; feed < 2; ++feed) {
      auto& src = nets[feed]->node(0).connect(static_cast<overlay::VirtualPort>(100 + feed));
      auto& dst = nets[feed]->node(2).connect(static_cast<overlay::VirtualPort>(200 + feed));
      sinks.push_back(std::make_unique<client::MeasuringSink>(dst));
      overlay::ServiceSpec spec;  // best effort: shows raw capacity
      senders.push_back(std::make_unique<client::FlowEngine>(
          d.sim, src, client::FlowClass{.spec = spec, .payload_bytes = 1200, .rate_pps = 1250},
          overlay::Destination::unicast(2, static_cast<overlay::VirtualPort>(200 + feed)),
          d.sim.now(), d.sim.now() + 10_s));
    }
    d.sim.run_for(12_s);
    std::printf("%22s", cluster ? "cluster (2 overlays)" : "single machine");
    for (int feed = 0; feed < 2; ++feed) {
      std::printf(" %11.2f%% %10.1fms",
                  100.0 * sinks[static_cast<std::size_t>(feed)]->delivery_ratio(
                              senders[static_cast<std::size_t>(feed)]->totals().sent),
                  sinks[static_cast<std::size_t>(feed)]->latencies_ms().quantile(0.99));
    }
    std::printf("\n");
  }

  std::printf("\nOne machine per site cannot carry 24 Mbps of overlay traffic through a\n");
  std::printf("20 Mbps NIC: both feeds shed and queueing inflates the tail. Sharding\n");
  std::printf("the feeds across two parallel overlays on the cluster's machines uses\n");
  std::printf("the same fiber but twice the processing, restoring clean line-rate\n");
  std::printf("delivery — no coordination between the overlays required.\n");
  return 0;
}
