#include "overlay/routing.hpp"

#include <limits>

namespace son::overlay {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Router::Router(NodeId self, const TopologyDb& topo_db, const GroupDb& group_db)
    : self_{self}, topo_db_{topo_db}, group_db_{group_db} {}

void Router::refresh_spt() {
  const std::uint64_t version = topo_db_.version();
  if (spt_version_ == version && spt_.built()) return;
  const bool have_delta =
      spt_.built() && topo_db_.changed_edges_since(spt_version_, delta_scratch_);
  const topo::Graph& g = topo_db_.current_graph();
  if (next_hop_.size() != g.num_nodes()) {
    next_hop_.assign(g.num_nodes(), kInvalidLinkBit);
    hop_version_.assign(g.num_nodes(), 0);
    chain_scratch_.reserve(g.num_nodes());
  }
  // Incremental repair pays off while the delta is sparse; a mass change
  // (journal aged out, loss-aware toggle, first build) recomputes. An empty
  // delta (duplicate-content re-floods) costs nothing at all.
  if (have_delta && 2 * delta_scratch_.size() < g.num_edges()) {
    if (!delta_scratch_.empty()) spt_.update(g, delta_scratch_);
  } else {
    spt_.full_compute(g, self_);
  }
  spt_version_ = version;
}

LinkBit Router::resolve_next_hop(topo::NodeIndex dst) {
  const auto& parent = spt_.parent();
  const auto& parent_edge = spt_.parent_edge();
  LinkBit hop = kInvalidLinkBit;
  chain_scratch_.clear();
  for (topo::NodeIndex v = dst;;) {
    if (hop_version_[v] == spt_version_) {
      hop = next_hop_[v];
      break;
    }
    if (v == self_) break;  // self has no first hop
    chain_scratch_.push_back(v);
    const topo::NodeIndex p = parent[v];
    if (p == topo::kNoNode) break;  // unreachable
    if (p == self_) {
      hop = static_cast<LinkBit>(parent_edge[v]);
      break;
    }
    v = p;
  }
  // Every node on the walked chain shares the answer.
  for (const topo::NodeIndex v : chain_scratch_) {
    next_hop_[v] = hop;
    hop_version_[v] = spt_version_;
  }
  return hop;
}

LinkBit Router::next_hop(NodeId dst) {
  refresh_spt();
  return dst < next_hop_.size() ? resolve_next_hop(dst) : kInvalidLinkBit;
}

double Router::path_cost_to(NodeId dst) {
  refresh_spt();
  const auto& dist = spt_.dist();
  return dst < dist.size() ? dist[dst] : kInf;
}

void Router::evict_stale_caches() {
  const std::uint64_t tv = topo_db_.version();
  const std::uint64_t gv = group_db_.version();
  if (tv == cache_swept_topo_ && gv == cache_swept_group_) return;
  std::erase_if(tree_cache_, [&](const auto& kv) {
    return kv.second.topo_version != tv || kv.second.group_version != gv;
  });
  std::erase_if(mask_cache_, [&](const auto& kv) { return kv.second.topo_version != tv; });
  cache_swept_topo_ = tv;
  cache_swept_group_ = gv;
}

std::size_t Router::evict_origin(NodeId origin) {
  std::size_t n = std::erase_if(tree_cache_,
                                [&](const auto& kv) { return kv.first.first == origin; });
  n += std::erase_if(mask_cache_, [&](const auto& kv) { return kv.first.dst == origin; });
  return n;
}

const std::vector<LinkBit>& Router::multicast_links(NodeId tree_src, GroupId group,
                                                    LinkBit arrived_on) {
  evict_stale_caches();  // surviving entries are stamped with the live versions
  const auto key = std::make_pair(tree_src, group);
  auto it = tree_cache_.find(key);
  if (it == tree_cache_.end()) {
    // members_of() is ascending, so the terminal order — and with it the
    // tree — is a pure function of the membership set, not of ad arrival.
    const auto members = group_db_.members_of(group);
    std::vector<topo::NodeIndex> terminals(members.begin(), members.end());
    TreeEntry entry{topo_db_.version(), group_db_.version(),
                    topo::multicast_tree(topo_db_.current_graph(), tree_src, terminals)};
    it = tree_cache_.insert_or_assign(key, std::move(entry)).first;
  }

  mcast_links_buf_.clear();
  const topo::Graph& g = topo_db_.current_graph();
  for (const topo::EdgeIndex e : it->second.edges) {  // ascending edge order
    const auto& ed = g.edge(e);
    if (ed.u != self_ && ed.v != self_) continue;
    const auto b = static_cast<LinkBit>(e);
    if (b == arrived_on) continue;
    mcast_links_buf_.push_back(b);
  }
  return mcast_links_buf_;
}

NodeId Router::anycast_target(GroupId group) {
  refresh_spt();
  const auto& dist = spt_.dist();
  NodeId best = kInvalidNode;
  double best_dist = kInf;
  // Ascending member scan + strict < pins ties to the lowest node id.
  for (const NodeId m : group_db_.members_of(group)) {
    const double d = (m == self_) ? 0.0 : (m < dist.size() ? dist[m] : kInf);
    if (d < best_dist) {
      best_dist = d;
      best = m;
    }
  }
  return best;
}

LinkMask Router::source_mask(const ServiceSpec& spec, NodeId dst) {
  evict_stale_caches();
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  switch (spec.scheme) {
    case RouteScheme::kDisjointPaths:
      a = spec.num_paths;
      break;
    case RouteScheme::kDissemination:
      a = spec.dissem_dst_fanin;
      b = spec.dissem_src_fanout;
      break;
    default:
      break;
  }
  const MaskKey key{spec.scheme, a, b, dst};
  auto it = mask_cache_.find(key);
  if (it != mask_cache_.end()) return it->second.mask;

  const topo::Graph& g = topo_db_.current_graph();
  topo::EdgeSet edges;
  switch (spec.scheme) {
    case RouteScheme::kDisjointPaths:
      edges = topo::k_disjoint_edges(g, self_, dst, spec.num_paths);
      break;
    case RouteScheme::kDissemination: {
      topo::DissemOptions opts;
      opts.dst_fanin = spec.dissem_dst_fanin;
      opts.src_fanout = spec.dissem_src_fanout;
      edges = topo::dissemination_graph(g, self_, dst, opts);
      break;
    }
    case RouteScheme::kFlooding:
      // Constrained flooding uses the full designed topology, including
      // links currently believed down (beliefs can be wrong or stale; the
      // whole point is maximal redundancy).
      edges = topo::all_edges(topo_db_.base_graph());
      break;
    case RouteScheme::kLinkState:
      break;  // no mask
  }

  LinkMask mask = 0;
  for (const topo::EdgeIndex e : edges) mask |= bit_of(static_cast<LinkBit>(e));
  mask_cache_.insert_or_assign(key, MaskEntry{topo_db_.version(), mask});
  return mask;
}

const std::vector<LinkBit>& Router::adjacent_mask_links(LinkMask mask, LinkBit arrived_on) {
  mask_links_buf_.clear();
  const topo::Graph& g = topo_db_.base_graph();
  for (const auto& [nbr, e] : g.neighbors(self_)) {
    const auto b = static_cast<LinkBit>(e);
    if (b != arrived_on && has_bit(mask, b)) mask_links_buf_.push_back(b);
  }
  return mask_links_buf_;
}

}  // namespace son::overlay
