// Built-in backbone maps and the dual-ISP underlay builder.
//
// Realizes the paper's Fig. 1 "Resilient Network Architecture": overlay
// nodes in well-provisioned data centers, each multihomed to two ISP
// backbones whose fiber follows the same city-to-city geography but is
// physically independent (a fiber cut in one provider never affects the
// other). Overlay links are designed short (~10 ms) per §II-A.
#pragma once

#include <utility>
#include <vector>

#include "net/internet.hpp"
#include "topo/geo.hpp"
#include "topo/graph.hpp"

namespace son::topo {

struct BackboneMap {
  std::vector<City> cities;
  /// Designed overlay links (index pairs into `cities`). Chosen so hops are
  /// short (~10 ms or less for the continental map).
  std::vector<std::pair<NodeIndex, NodeIndex>> edges;
};

/// 12 US data-center cities, 19 overlay links, ~2-11 ms per link.
[[nodiscard]] BackboneMap continental_us();

/// 10 global sites; transoceanic links are necessarily longer (the paper:
/// "about 150ms is sufficient to reach nearly any point on the globe").
[[nodiscard]] BackboneMap global_sites();

/// The overlay topology as a weighted graph; weights are one-way propagation
/// latency in milliseconds derived from geography.
[[nodiscard]] Graph overlay_graph(const BackboneMap& map, double route_inflation = 1.3);

struct DualIspOptions {
  double bandwidth_bps = 10e9;
  sim::Duration access_delay = sim::Duration::microseconds(250);
  sim::Duration max_queue_delay = sim::Duration::milliseconds(100);
  /// Steady Bernoulli loss applied to every backbone link direction.
  double backbone_loss = 0.0;
  double route_inflation = 1.3;
  /// Edges (by index into map.edges) each ISP does NOT build, to make the
  /// two backbones less-than-identical as in real deployments.
  std::vector<std::size_t> skip_in_isp_a;
  std::vector<std::size_t> skip_in_isp_b;
  /// Cities (by index) where the two ISPs peer. Empty = no peering (strict
  /// provider separation).
  std::vector<NodeIndex> peering_cities;
};

struct BuiltUnderlay {
  net::IspId isp_a = net::kInvalidIsp;
  net::IspId isp_b = net::kInvalidIsp;
  /// One host per city (the machine an overlay node runs on), multihomed to
  /// both ISPs: attachment 0 = ISP A, attachment 1 = ISP B (when present).
  std::vector<net::HostId> hosts;
  std::vector<net::RouterId> routers_a;
  std::vector<net::RouterId> routers_b;
  /// Backbone link ids per map edge; kInvalidLink where an ISP skipped it.
  std::vector<net::LinkId> links_a;
  std::vector<net::LinkId> links_b;
  /// The designed overlay, overlay_graph(map, route_inflation): its link
  /// weights are the latencies of the fibers built under it.
  Graph overlay{0};
};

/// Instantiates the map as two parallel ISP backbones in `internet`, with one
/// multihomed host per city, and returns the overlay designed over them.
BuiltUnderlay build_dual_isp(net::Internet& internet, const BackboneMap& map,
                             const DualIspOptions& opts);

}  // namespace son::topo
