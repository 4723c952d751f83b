// netdiag: the operator's view of a structured overlay deployment.
//
// Designs an overlay topology for the 12 US data-center cities from scratch
// (§II-A, topo::design_overlay), deploys it over the dual-ISP underlay,
// then prints what an operations console would show: link health as measured
// by hellos, the routing table, and the reaction to a live fiber cut.
#include <cstdio>

#include "overlay/network.hpp"
#include "topo/designer.hpp"

using namespace son;
using namespace son::sim::literals;

int main() {
  const auto map = topo::continental_us();

  // 1. Design the topology from the city list alone.
  topo::DesignOptions dopts;
  const auto design = topo::design_overlay(map.cities, dopts);
  if (!design) {
    std::printf("no feasible overlay design for these sites\n");
    return 1;
  }
  std::printf("designed overlay: %zu sites, %zu links (stretch %.2fx, all <= %.1f ms)\n\n",
              map.cities.size(), design->edges.size(), design->achieved_stretch,
              dopts.max_link_ms);
  std::printf("  %-4s %-4s %8s\n", "a", "b", "one-way");
  for (std::size_t e = 0; e < design->edges.size(); ++e) {
    const auto [a, b] = design->edges[e];
    std::printf("  %-4s %-4s %7.2fms\n", map.cities[a].name.c_str(),
                map.cities[b].name.c_str(),
                design->graph.edge(static_cast<topo::EdgeIndex>(e)).weight);
  }

  // 2. Deploy it: one host per city, dual-homed; overlay on top.
  sim::Simulator sim;
  net::Internet internet{sim, sim::Rng{77}};
  topo::BackboneMap designed_map;
  designed_map.cities = map.cities;
  designed_map.edges = design->edges;
  const auto underlay = topo::build_dual_isp(internet, designed_map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{internet, underlay.overlay, underlay.hosts, cfg, sim::Rng{78}};
  net.settle(5_s);

  // 3. Link health as the NYC node measures it.
  std::printf("\nlink health at NYC (hello-measured):\n");
  std::printf("  %-10s %5s %8s %8s %8s\n", "link", "up", "channel", "srtt", "loss");
  const auto& g = net.designed_topology();
  for (const auto& [nbr, e] : g.neighbors(0)) {
    const auto h = net.node(0).link_health(static_cast<overlay::LinkBit>(e));
    std::printf("  NYC-%-6s %5s %8d %6.2fms %7.3f%%\n", map.cities[nbr].name.c_str(),
                h.up ? "yes" : "NO", h.active_channel, h.srtt.to_millis_f(),
                100.0 * h.loss_estimate);
  }

  // 4. NYC's routing table.
  std::printf("\nrouting table at NYC (link-state):\n");
  std::printf("  %-6s %-10s %10s\n", "dest", "next hop", "path cost");
  for (overlay::NodeId d = 1; d < net.size(); ++d) {
    const overlay::LinkBit nh = net.node(0).router().next_hop(d);
    const auto via = nh == overlay::kInvalidLinkBit
                         ? std::string{"-"}
                         : map.cities[g.other_end(nh, 0)].name;
    std::printf("  %-6s %-10s %8.2fms\n", map.cities[d].name.c_str(), via.c_str(),
                net.node(0).router().path_cost_to(d));
  }

  // 5. Cut a fiber pair live and show the overlay noticing.
  const overlay::LinkBit victim = net.node(0).router().next_hop(9);  // toward LAX
  std::printf("\n*** cutting both ISPs' fiber under overlay link NYC-%s ***\n",
              map.cities[g.other_end(victim, 0)].name.c_str());
  internet.set_link_up(underlay.links_a[victim], false);
  internet.set_link_up(underlay.links_b[victim], false);
  sim.run_for(1_s);

  const auto h = net.node(0).link_health(victim);
  std::printf("after 1 s: link %s; LAX now routed via %s (cost %.2f ms)\n",
              h.up ? "still up?!" : "declared DOWN",
              map.cities[g.other_end(net.node(0).router().next_hop(9), 0)].name.c_str(),
              net.node(0).router().path_cost_to(9));
  std::printf("node stats: floods=%llu failovers=%llu frames tx/rx=%llu/%llu\n",
              static_cast<unsigned long long>(net.node(0).stats().lsa_floods),
              static_cast<unsigned long long>(net.node(0).stats().link_failovers),
              static_cast<unsigned long long>(net.node(0).stats().frames_sent),
              static_cast<unsigned long long>(net.node(0).stats().frames_received));
  return 0;
}
