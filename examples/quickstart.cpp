// Quickstart: bring up a structured overlay on the continental-US map, send
// reliable unicast and multicast traffic, and watch it survive a fiber cut.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "overlay/network.hpp"

using namespace son;
using namespace son::sim::literals;

int main() {
  // 1. A deterministic simulated internet: two ISP backbones following the
  //    same 12-city US geography, every data center dual-homed (Fig. 1).
  sim::Simulator sim;
  net::Internet internet{sim, sim::Rng{/*seed=*/2024}};
  const topo::BackboneMap map = topo::continental_us();
  const topo::BuiltUnderlay underlay =
      topo::build_dual_isp(internet, map, topo::DualIspOptions{});

  // 2. One overlay node per city; hellos, link-state and group state start
  //    flowing on start()/settle().
  overlay::NodeConfig cfg;  // defaults: 100 ms hellos, 3 misses -> down
  overlay::OverlayNetwork net{internet, underlay.overlay, underlay.hosts, cfg, sim::Rng{7}};
  net.settle(3_s);
  std::printf("overlay up: %zu nodes, %zu links\n", net.size(),
              net.designed_topology().num_edges());

  // 3. Clients connect to their nearest overlay node on a virtual port —
  //    "a client simply connects to an overlay node" (§II-B).
  auto& nyc_client = net.node(0).connect(/*port=*/5001);
  auto& lax_client = net.node(9).connect(/*port=*/5002);

  lax_client.set_handler([&](const overlay::Message& m, sim::Duration latency) {
    std::printf("  LAX got seq %llu from node %u in %.2f ms\n",
                static_cast<unsigned long long>(m.hdr.flow_seq), m.hdr.origin,
                latency.to_millis_f());
  });

  // 4. Reliable, ordered unicast NYC -> LAX. Each flow picks its own
  //    services (routing scheme + link protocol).
  overlay::ServiceSpec reliable;
  reliable.link_protocol = overlay::LinkProtocol::kReliable;
  reliable.ordered = true;
  for (int i = 0; i < 3; ++i) {
    nyc_client.send(overlay::Destination::unicast(9, 5002),
                    overlay::make_payload(1200), reliable);
  }
  sim.run_for(500_ms);

  // 5. Multicast: receivers join a group; any client can send to it.
  constexpr overlay::GroupId kVideoFeed = 42;
  auto& chi = net.node(4).connect(6000);
  auto& sea = net.node(11).connect(6000);
  chi.join(kVideoFeed);
  sea.join(kVideoFeed);
  chi.set_handler([](const overlay::Message&, sim::Duration lat) {
    std::printf("  CHI got multicast in %.2f ms\n", lat.to_millis_f());
  });
  sea.set_handler([](const overlay::Message&, sim::Duration lat) {
    std::printf("  SEA got multicast in %.2f ms\n", lat.to_millis_f());
  });
  sim.run_for(2_s);  // group state floods
  nyc_client.send(overlay::Destination::multicast(kVideoFeed),
                  overlay::make_payload(1200), overlay::ServiceSpec{});
  sim.run_for(500_ms);

  // 6. Resilience: cut the fiber under the first hop of the NYC->LAX route
  //    in BOTH providers; the overlay reroutes in well under a second, while
  //    the underlying internet would take its 40 s convergence delay.
  const overlay::LinkBit hop = net.node(0).router().next_hop(9);
  internet.set_link_up(underlay.links_a[hop], false);
  internet.set_link_up(underlay.links_b[hop], false);
  std::printf("cut both ISPs' fiber under overlay link %u...\n", hop);
  sim.run_for(1_s);
  nyc_client.send(overlay::Destination::unicast(9, 5002), overlay::make_payload(1200),
                  reliable);
  sim.run_for(500_ms);
  std::printf("done: NYC stats: originated=%llu forwarded=%llu failovers=%llu\n",
              static_cast<unsigned long long>(net.node(0).stats().originated),
              static_cast<unsigned long long>(net.node(0).stats().forwarded),
              static_cast<unsigned long long>(net.node(0).stats().link_failovers));
  return 0;
}
