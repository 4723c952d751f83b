#include "topo/backbones.hpp"

#include <algorithm>

namespace son::topo {

BackboneMap continental_us() {
  BackboneMap m;
  m.cities = {
      {"NYC", 40.71, -74.01}, {"WDC", 38.91, -77.04}, {"ATL", 33.75, -84.39},
      {"MIA", 25.76, -80.19}, {"CHI", 41.88, -87.63}, {"DFW", 32.78, -96.80},
      {"HOU", 29.76, -95.37}, {"DEN", 39.74, -104.99}, {"PHX", 33.45, -112.07},
      {"LAX", 34.05, -118.24}, {"SFO", 37.77, -122.42}, {"SEA", 47.61, -122.33},
  };
  // Index shorthands match the order above.
  enum : NodeIndex { NYC, WDC, ATL, MIA, CHI, DFW, HOU, DEN, PHX, LAX, SFO, SEA };
  m.edges = {
      {NYC, WDC}, {NYC, CHI}, {WDC, ATL}, {WDC, CHI}, {ATL, MIA}, {ATL, DFW}, {ATL, HOU},
      {MIA, HOU}, {CHI, DEN}, {CHI, DFW}, {DFW, HOU}, {DFW, DEN}, {DFW, PHX}, {DEN, PHX},
      {DEN, SFO}, {PHX, LAX}, {LAX, SFO}, {SFO, SEA}, {SEA, DEN},
  };
  return m;
}

BackboneMap global_sites() {
  BackboneMap m;
  m.cities = {
      {"NYC", 40.71, -74.01}, {"SEA", 47.61, -122.33}, {"LAX", 34.05, -118.24},
      {"LON", 51.51, -0.13},  {"FRA", 50.11, 8.68},    {"TYO", 35.68, 139.69},
      {"HKG", 22.32, 114.17}, {"SIN", 1.35, 103.82},   {"SYD", -33.87, 151.21},
      {"SAO", -23.55, -46.63},
  };
  enum : NodeIndex { NYC, SEA, LAX, LON, FRA, TYO, HKG, SIN, SYD, SAO };
  m.edges = {
      {NYC, SEA}, {NYC, LAX}, {SEA, LAX}, {NYC, LON}, {NYC, SAO}, {LON, FRA},
      {LON, SAO}, {FRA, SIN}, {SEA, TYO}, {LAX, TYO}, {LAX, SYD}, {TYO, HKG},
      {HKG, SIN}, {SIN, SYD}, {TYO, SIN}, {LAX, SAO},
  };
  return m;
}

Graph overlay_graph(const BackboneMap& map, double route_inflation) {
  Graph g(map.cities.size());
  for (const auto& [u, v] : map.edges) {
    g.add_edge(u, v,
               fiber_latency(map.cities[u], map.cities[v], route_inflation).to_millis_f());
  }
  return g;
}

BuiltUnderlay build_dual_isp(net::Internet& internet, const BackboneMap& map,
                             const DualIspOptions& opts) {
  BuiltUnderlay out;
  out.isp_a = internet.add_isp("isp-a");
  out.isp_b = internet.add_isp("isp-b");

  for (const auto& city : map.cities) {
    out.routers_a.push_back(internet.add_router(out.isp_a, city.name + "/a"));
    out.routers_b.push_back(internet.add_router(out.isp_b, city.name + "/b"));
  }

  const auto skipped = [](const std::vector<std::size_t>& skips, std::size_t e) {
    return std::find(skips.begin(), skips.end(), e) != skips.end();
  };

  out.links_a.assign(map.edges.size(), net::kInvalidLink);
  out.links_b.assign(map.edges.size(), net::kInvalidLink);
  for (std::size_t e = 0; e < map.edges.size(); ++e) {
    const auto [u, v] = map.edges[e];
    net::LinkConfig cfg;
    cfg.prop_delay = fiber_latency(map.cities[u], map.cities[v], opts.route_inflation);
    cfg.bandwidth_bps = opts.bandwidth_bps;
    cfg.max_queue_delay = opts.max_queue_delay;
    cfg.loss_rate = opts.backbone_loss;
    if (!skipped(opts.skip_in_isp_a, e)) {
      out.links_a[e] = internet.add_link(out.routers_a[u], out.routers_a[v], cfg);
    }
    if (!skipped(opts.skip_in_isp_b, e)) {
      out.links_b[e] = internet.add_link(out.routers_b[u], out.routers_b[v], cfg);
    }
  }

  // Peering: a short same-city cross-connect between the two providers.
  for (const NodeIndex c : opts.peering_cities) {
    net::LinkConfig cfg;
    cfg.prop_delay = sim::Duration::microseconds(200);
    cfg.bandwidth_bps = opts.bandwidth_bps;
    cfg.max_queue_delay = opts.max_queue_delay;
    internet.add_link(out.routers_a[c], out.routers_b[c], cfg);
  }

  for (std::size_t c = 0; c < map.cities.size(); ++c) {
    const net::HostId h = internet.add_host(map.cities[c].name);
    net::LinkConfig access;
    access.prop_delay = opts.access_delay;
    access.bandwidth_bps = opts.bandwidth_bps;
    access.max_queue_delay = opts.max_queue_delay;
    internet.attach_host(h, out.routers_a[c], access);
    internet.attach_host(h, out.routers_b[c], access);
    out.hosts.push_back(h);
  }
  out.overlay = overlay_graph(map, opts.route_inflation);
  return out;
}

}  // namespace son::topo
