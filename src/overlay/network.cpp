#include "overlay/network.hpp"

#include <algorithm>

#include "sim/shard.hpp"

namespace son::overlay {

OverlayNetwork::OverlayNetwork(net::Internet& internet, topo::Graph overlay_topology,
                               std::vector<net::HostId> hosts, const NodeConfig& cfg,
                               NodeStreams streams)
    : internet_{internet}, graph_{std::move(overlay_topology)} {
  // Link bits index 64-bit masks; a 65th link would shift by 64 (UB).
  SON_DCHECK(graph_.num_edges() <= kMaxOverlayLinks, "more than 64 overlay links");
  SON_DCHECK(hosts.size() == graph_.num_nodes(), "need one host per overlay node");
  const std::size_t n = graph_.num_nodes();
  nodes_.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    std::vector<OverlayNode::NeighborSpec> neighbors;
    for (const auto& [nbr, edge] : graph_.neighbors(id)) {
      OverlayNode::NeighborSpec spec;
      spec.link = static_cast<LinkBit>(edge);
      spec.peer = static_cast<NodeId>(nbr);
      spec.peer_host = hosts[nbr];
      const std::size_t channels = std::max<std::size_t>(
          1, std::min(internet.attachments(hosts[id]), internet.attachments(hosts[nbr])));
      for (std::size_t c = 0; c < channels; ++c) {
        spec.channels.push_back(OverlayNode::Channel{static_cast<net::AttachIndex>(c),
                                                     static_cast<net::AttachIndex>(c)});
      }
      neighbors.push_back(std::move(spec));
    }
    nodes_.push_back(std::make_unique<OverlayNode>(
        internet, hosts[id], id, graph_, std::move(neighbors), cfg,
        streams.of(id, internet.host_partition(hosts[id]))));
  }
}

void OverlayNetwork::start() {
  for (auto& n : nodes_) n->start();
}

void OverlayNetwork::settle(sim::Duration how_long) {
  start();
  if (sim::ShardedKernel* kernel = internet_.kernel()) {
    kernel->run_for(how_long);
  } else {
    internet_.simulator().run_for(how_long);
  }
}

namespace {

/// One backbone fiber of a single-ISP fixture, between the routers of
/// overlay nodes u and v.
struct Fiber {
  std::size_t u;
  std::size_t v;
  sim::Duration delay;
};

struct SingleIsp {
  std::vector<net::HostId> hosts;
  std::vector<net::LinkId> fibers;
};

/// The underlay of the research fixtures: one ISP named `isp_name`, one
/// router per overlay node with that node's host single-homed to it, then one
/// backbone link per entry of `fibers`, in that order.
SingleIsp build_single_isp(net::Internet& inet, const char* isp_name, std::size_t n,
                           sim::Duration access_delay, double bandwidth_bps,
                           const std::vector<Fiber>& fibers) {
  SingleIsp out;
  const net::IspId isp = inet.add_isp(isp_name);
  std::vector<net::RouterId> routers;
  net::LinkConfig link;
  link.bandwidth_bps = bandwidth_bps;
  link.prop_delay = access_delay;
  for (std::size_t i = 0; i < n; ++i) {
    routers.push_back(inet.add_router(isp, "r" + std::to_string(i)));
    out.hosts.push_back(inet.add_host("h" + std::to_string(i)));
    inet.attach_host(out.hosts.back(), routers.back(), link);
  }
  for (const Fiber& f : fibers) {
    link.prop_delay = f.delay;
    out.fibers.push_back(inet.add_link(routers[f.u], routers[f.v], link));
  }
  return out;
}

}  // namespace

GraphFixture build_graph_fixture(sim::Simulator& sim, const topo::Graph& g,
                                 const GraphOptions& opts, sim::Rng rng) {
  GraphFixture fx;
  fx.internet = std::make_unique<net::Internet>(sim, rng.fork(0x88));
  std::vector<Fiber> fibers;
  for (topo::EdgeIndex e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    fibers.push_back(Fiber{ed.u, ed.v, sim::Duration::from_millis_f(ed.weight)});
  }
  SingleIsp u = build_single_isp(*fx.internet, "fixture", g.num_nodes(),
                                 sim::Duration::microseconds(50), opts.bandwidth_bps, fibers);
  fx.hosts = std::move(u.hosts);
  fx.fiber = std::move(u.fibers);
  fx.overlay = std::make_unique<OverlayNetwork>(*fx.internet, g, fx.hosts, opts.node,
                                                rng.fork(0x89));
  return fx;
}

topo::Graph circulant_topology(std::size_t n, double ring_latency_ms,
                               double chord_latency_ms) {
  topo::Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_edge(static_cast<topo::NodeIndex>(i), static_cast<topo::NodeIndex>((i + 1) % n),
               ring_latency_ms);
  }
  for (std::size_t i = 0; i < n; ++i) {
    g.add_edge(static_cast<topo::NodeIndex>(i), static_cast<topo::NodeIndex>((i + 2) % n),
               chord_latency_ms);
  }
  return g;
}

ChainFixture build_chain(sim::Simulator& sim, const ChainOptions& opts, sim::Rng rng) {
  ChainFixture fx;
  fx.internet = std::make_unique<net::Internet>(sim, rng.fork(0x77));
  const std::size_t n = opts.n_nodes;
  std::vector<Fiber> fibers;
  for (std::size_t i = 0; i + 1 < n; ++i) fibers.push_back(Fiber{i, i + 1, opts.hop_latency});
  SingleIsp u = build_single_isp(*fx.internet, "chain", n, sim::Duration::microseconds(10),
                                 opts.bandwidth_bps, fibers);
  fx.hop_links = std::move(u.fibers);

  topo::Graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    fx.hop_overlay_links.push_back(static_cast<LinkBit>(
        g.add_edge(static_cast<topo::NodeIndex>(i), static_cast<topo::NodeIndex>(i + 1),
                   opts.hop_latency.to_millis_f())));
  }
  if (n > 2) {
    fx.direct_link = static_cast<LinkBit>(
        g.add_edge(0, static_cast<topo::NodeIndex>(n - 1),
                   opts.hop_latency.to_millis_f() * static_cast<double>(n - 1)));
  }

  fx.overlay = std::make_unique<OverlayNetwork>(*fx.internet, std::move(g), std::move(u.hosts),
                                                opts.node, rng.fork(0x78));
  return fx;
}

}  // namespace son::overlay
