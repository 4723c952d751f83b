#include "topo/graph.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <queue>

namespace son::topo {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

EdgeIndex Graph::add_edge(NodeIndex u, NodeIndex v, double weight) {
  assert(u < adj_.size() && v < adj_.size() && u != v);
  assert(weight >= 0.0);
  const auto id = static_cast<EdgeIndex>(edges_.size());
  edges_.push_back(Edge{u, v, weight});
  adj_[u].emplace_back(v, id);
  adj_[v].emplace_back(u, id);
  return id;
}

EdgeIndex Graph::find_edge(NodeIndex u, NodeIndex v) const {
  for (const auto& [n, e] : adj_.at(u)) {
    if (n == v) return e;
  }
  return kNoEdge;
}

NodeIndex Graph::other_end(EdgeIndex e, NodeIndex from) const {
  const Edge& ed = edges_.at(e);
  assert(ed.u == from || ed.v == from);
  return ed.u == from ? ed.v : ed.u;
}

ShortestPaths dijkstra(const Graph& g, NodeIndex src, const std::vector<bool>& disabled) {
  const std::size_t n = g.num_nodes();
  ShortestPaths sp{std::vector<double>(n, kInf), std::vector<NodeIndex>(n, kNoNode),
                   std::vector<EdgeIndex>(n, kNoEdge)};
  const auto is_disabled = [&](NodeIndex x) { return x < disabled.size() && disabled[x]; };
  if (is_disabled(src)) return sp;

  using QE = std::pair<double, NodeIndex>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  sp.dist[src] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > sp.dist[u]) continue;
    for (const auto& [v, e] : g.neighbors(u)) {
      if (is_disabled(v)) continue;
      const double nd = d + g.edge(e).weight;
      if (nd < sp.dist[v]) {
        sp.dist[v] = nd;
        sp.parent[v] = u;
        sp.parent_edge[v] = e;
        pq.emplace(nd, v);
      }
    }
  }
  return sp;
}

// ---- SptEngine (iSPF) ------------------------------------------------------

namespace {
constexpr std::uint32_t kNotInHeap = static_cast<std::uint32_t>(-1);
}

bool SptEngine::heap_less(NodeIndex a, NodeIndex b) const {
  // Tie-break on the node index so settle order — and therefore parent
  // selection — is a pure function of the labels, never of heap history.
  return dist_[a] < dist_[b] || (dist_[a] == dist_[b] && a < b);
}

void SptEngine::heap_sift_up(std::size_t i) {
  const NodeIndex v = heap_[i];
  while (i > 0) {
    const std::size_t p = (i - 1) / 4;
    if (!heap_less(v, heap_[p])) break;
    heap_[i] = heap_[p];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = p;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void SptEngine::heap_sift_down(std::size_t i) {
  const NodeIndex v = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_less(heap_[c], heap_[best])) best = c;
    }
    if (!heap_less(heap_[best], v)) break;
    heap_[i] = heap_[best];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void SptEngine::heap_push_or_decrease(NodeIndex v) {
  if (heap_pos_[v] == kNotInHeap) {
    heap_.push_back(v);
    heap_sift_up(heap_.size() - 1);
  } else {
    heap_sift_up(heap_pos_[v]);  // keys only ever decrease
  }
}

NodeIndex SptEngine::heap_pop() {
  const NodeIndex top = heap_.front();
  heap_pos_[top] = kNotInHeap;
  const NodeIndex tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = tail;
    heap_pos_[tail] = 0;
    heap_sift_down(0);
  }
  return top;
}

/// True if (dist_[u], u, e) precedes v's current parent label — the
/// canonical tie order. Callers guarantee dist_[u] + weight(e) == dist_[v].
bool SptEngine::tie_better(NodeIndex u, EdgeIndex e, NodeIndex v) const {
  const NodeIndex p = parent_[v];
  if (p == kNoNode) return true;
  const double du = dist_[u];
  const double dp = dist_[p];
  return du < dp || (du == dp && (u < p || (u == p && e < parent_edge_[v])));
}

/// The settled Dijkstra main loop: pops (dist, node)-minimal entries and
/// relaxes. A strict improvement re-labels and (re)queues; an exactly equal
/// offer from a canonically smaller (dist, node, edge) switches the parent
/// only — dist is unchanged, so nothing downstream moves, but the parent
/// arrays stay bit-identical to a full recompute even through ties.
/// Every popped node lands in touched_.
void SptEngine::run_heap(const Graph& g) {
  while (!heap_.empty()) {
    const NodeIndex u = heap_pop();
    touched_.push_back(u);
    const double du = dist_[u];
    for (const auto& [v, e] : g.neighbors(u)) {
      const double nd = du + g.edge(e).weight;
      if (nd < dist_[v]) {
        dist_[v] = nd;
        parent_[v] = u;
        parent_edge_[v] = e;
        heap_push_or_decrease(v);
      } else if (nd == dist_[v] && nd != kInf && v != src_ && tie_better(u, e, v)) {
        parent_[v] = u;
        parent_edge_[v] = e;
      }
    }
  }
}

/// Canonical parent: among all neighbors whose label plus the connecting
/// edge's weight equals dist[v] exactly, the (dist, node, edge)-minimal one.
/// For positive weights this is precisely the neighbor a full Dijkstra run
/// would have relaxed v from, so repaired regions stay bit-identical to a
/// fresh full compute.
void SptEngine::canonicalize_parent(const Graph& g, NodeIndex v) {
  if (v == src_ || dist_[v] == kInf) return;
  NodeIndex best_u = parent_[v];
  EdgeIndex best_e = parent_edge_[v];
  double best_d = dist_[best_u];
  for (const auto& [u, e] : g.neighbors(v)) {
    const double du = dist_[u];
    if (du == kInf) continue;
    if (du + g.edge(e).weight != dist_[v]) continue;
    if (du < best_d || (du == best_d && (u < best_u || (u == best_u && e < best_e)))) {
      best_u = u;
      best_e = e;
      best_d = du;
    }
  }
  parent_[v] = best_u;
  parent_edge_[v] = best_e;
}

void SptEngine::full_compute(const Graph& g, NodeIndex src) {
  const std::size_t n = g.num_nodes();
  src_ = src;
  dist_.assign(n, kInf);
  parent_.assign(n, kNoNode);
  parent_edge_.assign(n, kNoEdge);
  heap_.clear();
  heap_.reserve(n);
  heap_pos_.assign(n, kNotInHeap);
  detached_.assign(n, false);
  touched_.clear();
  touched_.reserve(n);
  dist_[src] = 0.0;
  heap_push_or_decrease(src);
  run_heap(g);
}

void SptEngine::update(const Graph& g, const EdgeSet& changed) {
  touched_.clear();
  detach_roots_.clear();
  detached_list_.clear();

  // Phase 1 — find the tree edges whose cost went up: the subtree below each
  // is suspect (every node in it routed through the dearer edge).
  for (const EdgeIndex e : changed) {
    const auto& ed = g.edge(e);
    NodeIndex child = kNoNode;
    if (parent_edge_[ed.v] == e) {
      child = ed.v;
    } else if (parent_edge_[ed.u] == e) {
      child = ed.u;
    }
    if (child == kNoNode) continue;
    const NodeIndex par = parent_[child];
    if (dist_[par] + ed.weight > dist_[child]) detach_roots_.push_back(child);
  }

  // Phase 2 — detach those subtrees (children are graph neighbors whose
  // parent_edge is the connecting edge), then reset their labels.
  for (const NodeIndex r : detach_roots_) {
    if (detached_[r]) continue;  // nested under an earlier root
    detached_[r] = true;
    detached_list_.push_back(r);
    for (std::size_t i = detached_list_.size() - 1; i < detached_list_.size(); ++i) {
      const NodeIndex x = detached_list_[i];
      for (const auto& [c, e] : g.neighbors(x)) {
        if (!detached_[c] && parent_[c] == x && parent_edge_[c] == e) {
          detached_[c] = true;
          detached_list_.push_back(c);
        }
      }
    }
  }
  // Phase 3 — seed the repair frontier: each detached node's best offer from
  // the still-attached region (argmin computed before the single heap push),
  // plus both directions of every changed edge (covers decreases; increases
  // fail the strict < and cost nothing).
  for (const NodeIndex x : detached_list_) {
    double best_d = kInf;
    NodeIndex best_u = kNoNode;
    EdgeIndex best_e = kNoEdge;
    for (const auto& [y, e] : g.neighbors(x)) {
      if (detached_[y]) continue;
      const double nd = dist_[y] + g.edge(e).weight;
      if (nd < best_d) {
        best_d = nd;
        best_u = y;
        best_e = e;
      }
    }
    dist_[x] = best_d;
    parent_[x] = best_u;
    parent_edge_[x] = best_e;
    if (best_d != kInf) heap_push_or_decrease(x);
  }
  for (const EdgeIndex e : changed) {
    const auto& ed = g.edge(e);
    const double w = ed.weight;
    const double via_u = dist_[ed.u] + w;
    if (via_u < dist_[ed.v]) {
      dist_[ed.v] = via_u;
      parent_[ed.v] = ed.u;
      parent_edge_[ed.v] = e;
      heap_push_or_decrease(ed.v);
    } else if (via_u == dist_[ed.v] && via_u != kInf && ed.v != src_ &&
               tie_better(ed.u, e, ed.v)) {
      // The change made this edge an exactly-equal-cost alternative that the
      // canonical order prefers: a fresh full run would route through it.
      parent_[ed.v] = ed.u;
      parent_edge_[ed.v] = e;
    }
    const double via_v = dist_[ed.v] + w;
    if (via_v < dist_[ed.u]) {
      dist_[ed.u] = via_v;
      parent_[ed.u] = ed.v;
      parent_edge_[ed.u] = e;
      heap_push_or_decrease(ed.u);
    } else if (via_v == dist_[ed.u] && via_v != kInf && ed.u != src_ &&
               tie_better(ed.v, e, ed.u)) {
      parent_[ed.u] = ed.v;
      parent_edge_[ed.u] = e;
    }
  }
  for (const NodeIndex x : detached_list_) detached_[x] = false;

  // Phase 4 — settle, then pin canonical parents for everything repaired.
  run_heap(g);
  for (const NodeIndex t : touched_) canonicalize_parent(g, t);
}

std::optional<Path> extract_path(const ShortestPaths& sp, NodeIndex src, NodeIndex dst) {
  if (sp.dist[dst] == kInf) return std::nullopt;
  Path p;
  for (NodeIndex v = dst; v != kNoNode; v = sp.parent[v]) p.push_back(v);
  std::reverse(p.begin(), p.end());
  if (p.front() != src) return std::nullopt;
  return p;
}

std::optional<Path> shortest_path(const Graph& g, NodeIndex src, NodeIndex dst,
                                  const std::vector<bool>& disabled) {
  if (src == dst) return Path{src};
  return extract_path(dijkstra(g, src, disabled), src, dst);
}

double path_cost(const Graph& g, const Path& p) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const EdgeIndex e = g.find_edge(p[i], p[i + 1]);
    assert(e != kNoEdge);
    total += g.edge(e).weight;
  }
  return total;
}

// ---- k node-disjoint paths via min-cost unit flow --------------------------
//
// Node splitting: node x becomes x_in (2x) and x_out (2x+1) joined by a
// unit-capacity zero-cost arc (infinite capacity for src/dst so k paths may
// share the endpoints). Each undirected edge becomes two unit-capacity arcs.
// We push one unit of flow at a time along a Bellman-Ford shortest path in
// the residual graph (costs can go negative in residuals).

namespace {

struct Arc {
  std::uint32_t to;
  std::uint32_t rev;  // index of reverse arc in arcs[to]
  std::int32_t cap;
  double cost;
  bool forward;  // true for original arcs, false for residual reverses
};

class FlowNet {
 public:
  explicit FlowNet(std::size_t n) : arcs_(n) {}

  void add_arc(std::uint32_t from, std::uint32_t to, std::int32_t cap, double cost) {
    arcs_[from].push_back(
        Arc{to, static_cast<std::uint32_t>(arcs_[to].size()), cap, cost, true});
    arcs_[to].push_back(
        Arc{from, static_cast<std::uint32_t>(arcs_[from].size() - 1), 0, -cost, false});
  }

  /// One augmentation src→dst along a min-cost residual path. Returns false
  /// when no augmenting path exists.
  bool augment(std::uint32_t src, std::uint32_t dst) {
    const std::size_t n = arcs_.size();
    std::vector<double> dist(n, kInf);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> prev(n, {0, 0});  // (node, arc idx)
    std::vector<bool> in_queue(n, false);
    std::deque<std::uint32_t> q;
    dist[src] = 0.0;
    q.push_back(src);
    in_queue[src] = true;
    while (!q.empty()) {
      const auto u = q.front();
      q.pop_front();
      in_queue[u] = false;
      for (std::uint32_t i = 0; i < arcs_[u].size(); ++i) {
        const Arc& a = arcs_[u][i];
        if (a.cap <= 0) continue;
        if (dist[u] + a.cost < dist[a.to] - 1e-12) {
          dist[a.to] = dist[u] + a.cost;
          prev[a.to] = {u, i};
          if (!in_queue[a.to]) {
            q.push_back(a.to);
            in_queue[a.to] = true;
          }
        }
      }
    }
    if (dist[dst] == kInf) return false;
    for (std::uint32_t v = dst; v != src;) {
      const auto [u, i] = prev[v];
      Arc& a = arcs_[u][i];
      a.cap -= 1;
      arcs_[a.to][a.rev].cap += 1;
      v = u;
    }
    return true;
  }

  [[nodiscard]] const std::vector<std::vector<Arc>>& arcs() const { return arcs_; }

 private:
  std::vector<std::vector<Arc>> arcs_;
};

}  // namespace

std::vector<Path> k_node_disjoint_paths(const Graph& g, NodeIndex src, NodeIndex dst,
                                        std::size_t k) {
  assert(src != dst);
  const std::size_t n = g.num_nodes();
  const auto in_of = [](NodeIndex x) { return 2 * x; };
  const auto out_of = [](NodeIndex x) { return 2 * x + 1; };

  FlowNet fn(2 * n);
  for (NodeIndex x = 0; x < n; ++x) {
    const std::int32_t cap = (x == src || x == dst) ? static_cast<std::int32_t>(k) : 1;
    fn.add_arc(in_of(x), out_of(x), cap, 0.0);
  }
  for (EdgeIndex e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    fn.add_arc(out_of(ed.u), in_of(ed.v), 1, ed.weight);
    fn.add_arc(out_of(ed.v), in_of(ed.u), 1, ed.weight);
  }

  std::size_t found = 0;
  while (found < k && fn.augment(out_of(src), in_of(dst))) ++found;

  // Decompose the flow into paths by walking it from src. Flow pushed over a
  // forward arc shows up as capacity on its reverse arc, so "remaining flow"
  // on forward arc i out of u is reverse_cap - used[u][i]. Intermediate
  // nodes carry at most one unit (their split arc has capacity 1), so each
  // walk through a node is unique; only edge arcs need used[] tracking
  // because src/dst fan out up to k arcs.
  std::vector<std::vector<std::int32_t>> used(2 * n);
  for (std::uint32_t u = 0; u < 2 * n; ++u) {
    used[u].assign(fn.arcs()[u].size(), 0);
  }
  std::vector<Path> paths;
  for (std::size_t p = 0; p < found; ++p) {
    Path path{src};
    std::uint32_t cur = out_of(src);
    while (cur != in_of(dst)) {
      bool advanced = false;
      auto& arcs_cur = fn.arcs()[cur];
      for (std::uint32_t i = 0; i < arcs_cur.size(); ++i) {
        const Arc& a = arcs_cur[i];
        // Consumed flow on a forward arc appears as capacity on its
        // residual reverse arc at a.to.
        if (!a.forward) continue;
        const Arc& rev = fn.arcs()[a.to][a.rev];
        std::int32_t flow = rev.cap - used[cur][i];
        if (flow <= 0) continue;
        used[cur][i] += 1;
        cur = a.to;
        advanced = true;
        break;
      }
      assert(advanced && "flow decomposition got stuck");
      if (!advanced) return paths;
      if (cur % 2 == 0) {  // arrived at some x_in
        const NodeIndex x = cur / 2;
        if (x != dst) {
          path.push_back(x);
          cur = out_of(x);
        }
      }
    }
    path.push_back(dst);
    paths.push_back(std::move(path));
  }
  return paths;
}

EdgeSet multicast_tree(const Graph& g, NodeIndex src, const std::vector<NodeIndex>& terminals) {
  const auto sp = dijkstra(g, src);
  EdgeSet edges;
  std::vector<bool> in_tree(g.num_nodes(), false);
  in_tree[src] = true;
  for (const NodeIndex t : terminals) {
    if (sp.dist[t] == kInf) continue;  // unreachable terminal: skip
    for (NodeIndex v = t; !in_tree[v]; v = sp.parent[v]) {
      in_tree[v] = true;
      edges.push_back(sp.parent_edge[v]);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

EdgeSet path_edges(const Graph& g, const Path& p) {
  EdgeSet out;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const EdgeIndex e = g.find_edge(p[i], p[i + 1]);
    assert(e != kNoEdge);
    out.push_back(e);
  }
  return out;
}

EdgeSet union_edges(const EdgeSet& a, const EdgeSet& b) {
  EdgeSet out = a;
  out.insert(out.end(), b.begin(), b.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  std::vector<bool> seen(g.num_nodes(), false);
  std::queue<NodeIndex> q;
  q.push(0);
  seen[0] = true;
  std::size_t visited = 1;
  while (!q.empty()) {
    const NodeIndex u = q.front();
    q.pop();
    for (const auto& [v, e] : g.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        q.push(v);
      }
    }
  }
  return visited == g.num_nodes();
}

namespace {

struct ArticulationState {
  const Graph& g;
  std::vector<int> disc;
  std::vector<int> low;
  std::vector<bool> is_cut;
  int timer = 0;

  explicit ArticulationState(const Graph& graph)
      : g{graph},
        disc(graph.num_nodes(), -1),
        low(graph.num_nodes(), 0),
        is_cut(graph.num_nodes(), false) {}

  void dfs(NodeIndex u, NodeIndex parent) {
    disc[u] = low[u] = timer++;
    int children = 0;
    for (const auto& [v, e] : g.neighbors(u)) {
      if (v == parent) continue;
      if (disc[v] != -1) {
        low[u] = std::min(low[u], disc[v]);
        continue;
      }
      ++children;
      dfs(v, u);
      low[u] = std::min(low[u], low[v]);
      if (parent != kNoNode && low[v] >= disc[u]) is_cut[u] = true;
    }
    if (parent == kNoNode && children > 1) is_cut[u] = true;
  }
};

}  // namespace

std::vector<NodeIndex> articulation_points(const Graph& g) {
  ArticulationState st{g};
  for (NodeIndex u = 0; u < g.num_nodes(); ++u) {
    if (st.disc[u] == -1) st.dfs(u, kNoNode);
  }
  std::vector<NodeIndex> out;
  for (NodeIndex u = 0; u < g.num_nodes(); ++u) {
    if (st.is_cut[u]) out.push_back(u);
  }
  return out;
}

bool is_biconnected(const Graph& g) {
  return g.num_nodes() >= 2 && is_connected(g) && articulation_points(g).empty();
}

bool reachable_in_subgraph(const Graph& g, const EdgeSet& edges, NodeIndex src, NodeIndex dst,
                           const std::vector<bool>& disabled) {
  std::vector<std::vector<NodeIndex>> adj(g.num_nodes());
  for (const EdgeIndex e : edges) {
    const auto& ed = g.edge(e);
    adj[ed.u].push_back(ed.v);
    adj[ed.v].push_back(ed.u);
  }
  const auto is_disabled = [&](NodeIndex x) { return x < disabled.size() && disabled[x]; };
  if (is_disabled(src) || is_disabled(dst)) return false;
  std::vector<bool> seen(g.num_nodes(), false);
  std::queue<NodeIndex> q;
  q.push(src);
  seen[src] = true;
  while (!q.empty()) {
    const NodeIndex u = q.front();
    q.pop();
    if (u == dst) return true;
    for (const NodeIndex v : adj[u]) {
      if (!seen[v] && !is_disabled(v)) {
        seen[v] = true;
        q.push(v);
      }
    }
  }
  return false;
}

}  // namespace son::topo
