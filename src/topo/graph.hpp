// Small undirected weighted graph plus the routing algorithms the overlay
// needs: shortest paths, k node-disjoint paths, and multicast trees.
//
// Overlay topologies are tiny (the paper: "a few tens of well situated
// overlay nodes"), so everything here optimizes for clarity and determinism
// over asymptotics.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/hot.hpp"

namespace son::topo {

using NodeIndex = std::uint32_t;
using EdgeIndex = std::uint32_t;
inline constexpr NodeIndex kNoNode = static_cast<NodeIndex>(-1);
inline constexpr EdgeIndex kNoEdge = static_cast<EdgeIndex>(-1);

class Graph {
 public:
  struct Edge {
    NodeIndex u;
    NodeIndex v;
    double weight;
  };

  explicit Graph(std::size_t num_nodes) : adj_(num_nodes) {}

  /// Adds an undirected edge; returns its index. Weight must be >= 0.
  EdgeIndex add_edge(NodeIndex u, NodeIndex v, double weight);
  void set_weight(EdgeIndex e, double weight) { edges_.at(e).weight = weight; }

  [[nodiscard]] std::size_t num_nodes() const { return adj_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  [[nodiscard]] const Edge& edge(EdgeIndex e) const { return edges_.at(e); }
  /// (neighbor, edge) pairs for node u.
  [[nodiscard]] const std::vector<std::pair<NodeIndex, EdgeIndex>>& neighbors(
      NodeIndex u) const {
    return adj_.at(u);
  }
  [[nodiscard]] EdgeIndex find_edge(NodeIndex u, NodeIndex v) const;
  [[nodiscard]] NodeIndex other_end(EdgeIndex e, NodeIndex from) const;

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<std::pair<NodeIndex, EdgeIndex>>> adj_;
};

/// A path as a node sequence (front() == src, back() == dst).
using Path = std::vector<NodeIndex>;
/// A set of edges forming a subgraph (e.g. a dissemination graph).
using EdgeSet = std::vector<EdgeIndex>;

struct ShortestPaths {
  std::vector<double> dist;        // infinity if unreachable
  std::vector<NodeIndex> parent;   // kNoNode for src / unreachable
  std::vector<EdgeIndex> parent_edge;
};

/// Single-source Dijkstra. `disabled_nodes` (optional, may be empty) are
/// treated as absent — used for routing around failed/compromised nodes.
[[nodiscard]] ShortestPaths dijkstra(const Graph& g, NodeIndex src,
                                     const std::vector<bool>& disabled_nodes = {});

/// Incremental single-source shortest paths (iSPF, as in production
/// link-state routers): maintains dist/parent/parent_edge from a fixed
/// source across edge *weight* changes (the structure is fixed; a +infinity
/// weight models an absent/down link, which is how the overlay's TopologyDb
/// encodes failures). update() repairs only the affected part of the tree —
/// subtrees hanging off increased tree edges are detached and re-attached by
/// a Dijkstra seeded at the detach frontier plus the decreased edges — so an
/// LSA that changes one link costs work proportional to the affected
/// subtree, not to the graph. The 4-ary heap and every scratch vector are
/// reused across calls: steady-state updates allocate nothing.
///
/// Determinism contract: after any sequence of update() calls the three
/// result arrays are bit-identical to a fresh dijkstra() on the same
/// weights (graphs with strictly positive finite weights; pinned by the
/// randomized-churn property tests). Equal-cost ties resolve to the parent
/// minimizing (dist[parent], parent, edge) — provably the relaxation winner
/// of a full run when weights are positive.
class SptEngine {
 public:
  /// Full rebuild — plain Dijkstra from `src` into the reused buffers.
  void full_compute(const Graph& g, NodeIndex src);

  /// Repairs the tree after the weights of `changed` (deduplicated) were
  /// already updated in `g`. Requires a prior full_compute() against a
  /// graph with the same structure and source.
  SON_HOT void update(const Graph& g, const EdgeSet& changed);

  [[nodiscard]] bool built() const { return src_ != kNoNode; }
  [[nodiscard]] NodeIndex source() const { return src_; }
  [[nodiscard]] const std::vector<double>& dist() const { return dist_; }
  [[nodiscard]] const std::vector<NodeIndex>& parent() const { return parent_; }
  [[nodiscard]] const std::vector<EdgeIndex>& parent_edge() const { return parent_edge_; }
  /// Nodes re-settled by the last update() (diagnostics / benchmarks).
  [[nodiscard]] std::size_t last_update_touched() const { return touched_.size(); }

 private:
  [[nodiscard]] bool heap_less(NodeIndex a, NodeIndex b) const;
  [[nodiscard]] bool tie_better(NodeIndex u, EdgeIndex e, NodeIndex v) const;
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  void heap_push_or_decrease(NodeIndex v);
  NodeIndex heap_pop();
  void run_heap(const Graph& g);
  void canonicalize_parent(const Graph& g, NodeIndex v);

  NodeIndex src_ = kNoNode;
  std::vector<double> dist_;
  std::vector<NodeIndex> parent_;
  std::vector<EdgeIndex> parent_edge_;

  // Reused scratch: 4-ary min-heap on (dist_, node) with position tracking
  // for decrease-key, the subtree-detach worklist, and the touched set.
  std::vector<NodeIndex> heap_;
  std::vector<std::uint32_t> heap_pos_;
  std::vector<NodeIndex> detach_roots_;
  std::vector<NodeIndex> detached_list_;
  std::vector<std::uint8_t> detached_;  // byte flags: no bit-RMW in the hot BFS
  std::vector<NodeIndex> touched_;
};

/// Extracts src→dst path from a Dijkstra result; nullopt if unreachable.
[[nodiscard]] std::optional<Path> extract_path(const ShortestPaths& sp, NodeIndex src,
                                               NodeIndex dst);

[[nodiscard]] std::optional<Path> shortest_path(const Graph& g, NodeIndex src, NodeIndex dst,
                                                const std::vector<bool>& disabled_nodes = {});

[[nodiscard]] double path_cost(const Graph& g, const Path& p);

/// Up to k mutually node-disjoint (except endpoints) src→dst paths with
/// minimum total weight, via min-cost unit-capacity flow on the node-split
/// graph (Suurballe generalized to k and node-disjointness). Returns fewer
/// than k paths if the graph's connectivity is lower.
[[nodiscard]] std::vector<Path> k_node_disjoint_paths(const Graph& g, NodeIndex src,
                                                      NodeIndex dst, std::size_t k);

/// Edges of the shortest-path tree from `src` pruned to reach `terminals`.
/// This is the overlay's multicast dissemination tree.
[[nodiscard]] EdgeSet multicast_tree(const Graph& g, NodeIndex src,
                                     const std::vector<NodeIndex>& terminals);

/// Converts a node path to the edge set it traverses.
[[nodiscard]] EdgeSet path_edges(const Graph& g, const Path& p);

/// Union of edge sets, deduplicated, sorted.
[[nodiscard]] EdgeSet union_edges(const EdgeSet& a, const EdgeSet& b);

/// True if dst is reachable from src using only `edges`, with
/// `disabled_nodes` removed (endpoints may not be disabled).
[[nodiscard]] bool reachable_in_subgraph(const Graph& g, const EdgeSet& edges, NodeIndex src,
                                         NodeIndex dst, const std::vector<bool>& disabled_nodes);

/// True if every node can reach every other (ignoring edge weights).
[[nodiscard]] bool is_connected(const Graph& g);

/// Articulation points (cut vertices) via Tarjan's low-link algorithm.
/// A graph with none (and connected, n >= 3) is biconnected: no single node
/// failure can partition it — the resilience bar for overlay topologies.
[[nodiscard]] std::vector<NodeIndex> articulation_points(const Graph& g);

[[nodiscard]] bool is_biconnected(const Graph& g);

}  // namespace son::topo
