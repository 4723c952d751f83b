// ROUTING — incremental link-state engine throughput (BENCH_routing.json).
//
// The tentpole claim of the iSPF work: an LSA should cost work proportional
// to what it changed, not to the size of the overlay. Four cells:
//   * update_incremental — LSA churn on a 32-node / 64-link circulant; each
//     accepted ad is followed by a next-hop query, so the measured loop is
//     exactly the production path: apply -> dirty-edge journal -> iSPF
//     repair -> lazy next-hop resolve.
//   * update_full        — the identical workload through a bench-side
//     full-recompute reference built from public pieces: every edge recosted
//     with TopologyDb::link_cost, topo::dijkstra, then a parent walk per
//     destination, i.e. the pre-iSPF pipeline. Kept in the report as the
//     recorded baseline; the speedup ratio is printed below.
//   * nexthop_query      — steady-state next-hop latency on a warm memo.
//   * multicast_refresh  — multicast tree rebuild + cache eviction under
//     topology churn.
// Both update cells fold every routing answer (next hop + path cost bits)
// into a deterministic route_digest scalar; main() cross-checks that the
// incremental and full engines produced identical digests, so the speedup
// is measured over provably identical routing behavior. Wall-clock rates
// land under run.timings (machine-dependent).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "overlay/group_state.hpp"
#include "overlay/link_state.hpp"
#include "overlay/network.hpp"
#include "overlay/routing.hpp"
#include "sim/random.hpp"

namespace {

using namespace son;
using overlay::GroupDb;
using overlay::LinkBit;
using overlay::LinkReport;
using overlay::LinkStateAd;
using overlay::NodeId;
using overlay::Router;
using overlay::TopologyDb;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(d));
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

constexpr std::size_t kNodes = 32;  // circulant C_32(1,2): 64 links

/// Realistic LSA churn: each step one origin re-floods its advertisement.
/// Most per-link reports are unchanged from the previous flood (periodic
/// re-advertisement); each link's measurement moves with probability 1/4,
/// and links flap down/up occasionally. This is the link-state steady state
/// the paper's sub-second rerouting lives in: frequent ads, sparse change.
struct ChurnDriver {
  const topo::Graph& g;
  sim::Rng rng;
  std::vector<std::uint64_t> seq;
  std::vector<LinkStateAd> last;  // previous ad per origin

  ChurnDriver(const topo::Graph& graph, std::uint64_t rng_seed)
      : g{graph}, rng{rng_seed}, seq(g.num_nodes(), 0), last(g.num_nodes()) {
    for (topo::NodeIndex n = 0; n < g.num_nodes(); ++n) {
      LinkStateAd& ad = last[n];
      ad.origin = static_cast<NodeId>(n);
      for (const auto& nbr_edge : g.neighbors(n)) {
        LinkReport r;
        r.link = static_cast<LinkBit>(nbr_edge.second);
        r.latency_ms = g.edge(nbr_edge.second).weight;
        ad.links.push_back(r);
      }
    }
  }

  const LinkStateAd& next_ad() {
    const auto origin = static_cast<NodeId>(rng.index(g.num_nodes()));
    LinkStateAd& ad = last[origin];
    ad.seq = ++seq[origin];
    for (LinkReport& r : ad.links) {
      if (rng.bernoulli(0.25)) {
        r.latency_ms = 5.0 + 10.0 * rng.uniform();
        r.loss_rate = rng.bernoulli(0.2) ? 0.3 * rng.uniform() : 0.0;
        r.up = !rng.bernoulli(0.05);
      }
    }
    return ad;
  }
};

// ---- Cells 1+2: LSA-churn update throughput --------------------------------

exp::Metrics update_churn(std::uint64_t updates, bool full_recompute, std::uint64_t seed) {
  const topo::Graph g = overlay::circulant_topology(kNodes);
  TopologyDb db{g};
  GroupDb groups{g.num_nodes()};
  Router router{0, db, groups};
  ChurnDriver churn{g, seed};
  sim::Rng query_rng{seed ^ 0x9e3779b97f4a7c15ULL};

  // update_full's reference, the pre-iSPF pipeline routing from node 0: per
  // topology version, recost every edge of a local graph, run the allocating
  // topo::dijkstra, then walk back from every destination into an eager
  // next-hop table (no memoization across destinations).
  topo::Graph full_graph = g;
  topo::ShortestPaths full_spt;
  std::vector<LinkBit> full_next_hop(g.num_nodes());
  const auto full_rebuild = [&]() {
    for (topo::EdgeIndex e = 0; e < full_graph.num_edges(); ++e) {
      full_graph.set_weight(e, db.link_cost(static_cast<LinkBit>(e)));
    }
    full_spt = topo::dijkstra(full_graph, 0);
    for (topo::NodeIndex dst = 0; dst < full_graph.num_nodes(); ++dst) {
      LinkBit hop = overlay::kInvalidLinkBit;
      if (dst != 0 && full_spt.dist[dst] != std::numeric_limits<double>::infinity()) {
        topo::NodeIndex v = dst;
        while (full_spt.parent[v] != 0) v = full_spt.parent[v];
        hop = static_cast<LinkBit>(full_spt.parent_edge[v]);
      }
      full_next_hop[dst] = hop;
    }
  };

  std::uint64_t digest = 1469598103934665603ULL;  // FNV offset basis
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < updates; ++i) {
    if (!db.apply(churn.next_ad())) std::abort();  // seqs are always fresh
    const auto dst = static_cast<NodeId>(query_rng.index(kNodes));
    if (full_recompute) {
      full_rebuild();
      digest = fnv1a(digest, full_next_hop[dst]);
      digest = fnv1a(digest, bits_of(full_spt.dist[dst]));
    } else {
      digest = fnv1a(digest, router.next_hop(dst));
      digest = fnv1a(digest, bits_of(router.path_cost_to(dst)));
    }
  }
  const double wall = seconds_since(t0);

  exp::Metrics m;
  m.scalar("updates", static_cast<double>(updates));
  // Folded to 32 bits so the digest is exact in the report's doubles.
  m.scalar("route_digest", static_cast<double>((digest ^ (digest >> 32)) & 0xFFFFFFFFULL));
  m.timing("updates_per_sec", static_cast<double>(updates) / wall);
  return m;
}

// ---- Cell 3: steady-state next-hop query latency ---------------------------

exp::Metrics nexthop_query(std::uint64_t queries, std::uint64_t seed) {
  const topo::Graph g = overlay::circulant_topology(kNodes);
  TopologyDb db{g};
  GroupDb groups{g.num_nodes()};
  Router router{0, db, groups};
  ChurnDriver churn{g, seed};
  for (int i = 0; i < 200; ++i) (void)db.apply(churn.next_ad());  // settle

  sim::Rng query_rng{seed ^ 0xda942042e4dd58b5ULL};
  std::uint64_t digest = 1469598103934665603ULL;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < queries; ++i) {
    digest = fnv1a(digest, router.next_hop(static_cast<NodeId>(query_rng.index(kNodes))));
  }
  const double wall = seconds_since(t0);

  exp::Metrics m;
  m.scalar("queries", static_cast<double>(queries));
  m.scalar("route_digest", static_cast<double>((digest ^ (digest >> 32)) & 0xFFFFFFFFULL));
  m.timing("queries_per_sec", static_cast<double>(queries) / wall);
  return m;
}

// ---- Cell 4: multicast tree refresh under churn ----------------------------

exp::Metrics multicast_refresh(std::uint64_t refreshes, std::uint64_t seed) {
  const topo::Graph g = overlay::circulant_topology(kNodes);
  TopologyDb db{g};
  GroupDb groups{g.num_nodes()};
  Router router{0, db, groups};
  constexpr overlay::GroupId kGroup = 100;
  sim::Rng member_rng{seed ^ 0xa5a5a5a5ULL};
  for (NodeId n = 1; n < kNodes; ++n) {
    if (member_rng.bernoulli(0.3)) groups.apply({n, 1, {kGroup}});
  }
  ChurnDriver churn{g, seed};

  std::uint64_t digest = 1469598103934665603ULL;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < refreshes; ++i) {
    // Every refresh sees a new topology version: worst case for the tree
    // cache (a fresh tree each call; stale entry evicted, not accumulated).
    if (!db.apply(churn.next_ad())) std::abort();
    for (const LinkBit b : router.multicast_links(0, kGroup, overlay::kInvalidLinkBit)) {
      digest = fnv1a(digest, b);
    }
  }
  const double wall = seconds_since(t0);

  exp::Metrics m;
  m.scalar("refreshes", static_cast<double>(refreshes));
  m.scalar("route_digest", static_cast<double>((digest ^ (digest >> 32)) & 0xFFFFFFFFULL));
  m.timing("refreshes_per_sec", static_cast<double>(refreshes) / wall);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "routing", 3, 7400);
  const std::uint64_t updates = opts.quick ? 50'000 : 500'000;
  const std::uint64_t queries = opts.quick ? 2'000'000 : 20'000'000;
  const std::uint64_t refreshes = opts.quick ? 20'000 : 200'000;

  bench::heading("ROUTING", "Incremental link-state engine (iSPF) throughput");
  bench::note("32-node / 64-link circulant under LSA churn (sparse change per ad).");
  bench::note("update_full is the recorded pre-iSPF baseline: identical workload,");
  bench::note("full Dijkstra per topology version. route_digest must match.");

  exp::Experiment ex{opts};
  {
    exp::Json p = exp::Json::object();
    p["nodes"] = std::uint64_t{kNodes};
    p["links"] = std::uint64_t{2 * kNodes};
    p["updates"] = updates;
    p["engine"] = std::string{"ispf"};
    ex.add_cell("update_incremental", std::move(p),
                [updates](std::uint64_t seed) { return update_churn(updates, false, seed); });
  }
  {
    exp::Json p = exp::Json::object();
    p["nodes"] = std::uint64_t{kNodes};
    p["links"] = std::uint64_t{2 * kNodes};
    p["updates"] = updates;
    p["engine"] = std::string{"full_dijkstra"};
    ex.add_cell("update_full", std::move(p),
                [updates](std::uint64_t seed) { return update_churn(updates, true, seed); });
  }
  {
    exp::Json p = exp::Json::object();
    p["nodes"] = std::uint64_t{kNodes};
    p["queries"] = queries;
    ex.add_cell("nexthop_query", std::move(p),
                [queries](std::uint64_t seed) { return nexthop_query(queries, seed); });
  }
  {
    exp::Json p = exp::Json::object();
    p["nodes"] = std::uint64_t{kNodes};
    p["refreshes"] = refreshes;
    ex.add_cell("multicast_refresh", std::move(p), [refreshes](std::uint64_t seed) {
      return multicast_refresh(refreshes, seed);
    });
  }
  const exp::Report report = ex.run();

  const auto& inc = report.cell("update_incremental");
  const auto& full = report.cell("update_full");
  const double speedup =
      inc.timing_mean("updates_per_sec") / full.timing_mean("updates_per_sec");

  bench::Table t{{"cell", "work/trial", "rate (wall)", "unit"}, 20};
  t.print_header();
  t.cell(std::string{"update_incremental"});
  t.cell(inc.scalar_mean("updates"), "%.0f");
  t.cell(inc.timing_mean("updates_per_sec"), "%.0f");
  t.cell(std::string{"updates/s"});
  t.end_row();
  t.cell(std::string{"update_full"});
  t.cell(full.scalar_mean("updates"), "%.0f");
  t.cell(full.timing_mean("updates_per_sec"), "%.0f");
  t.cell(std::string{"updates/s"});
  t.end_row();
  {
    const auto& c = report.cell("nexthop_query");
    t.cell(std::string{"nexthop_query"});
    t.cell(c.scalar_mean("queries"), "%.0f");
    t.cell(c.timing_mean("queries_per_sec"), "%.0f");
    t.cell(std::string{"queries/s"});
    t.end_row();
  }
  {
    const auto& c = report.cell("multicast_refresh");
    t.cell(std::string{"multicast_refresh"});
    t.cell(c.scalar_mean("refreshes"), "%.0f");
    t.cell(c.timing_mean("refreshes_per_sec"), "%.0f");
    t.cell(std::string{"refreshes/s"});
    t.end_row();
  }
  bench::note("");
  std::printf("  iSPF speedup over full recompute: %.1fx\n", speedup);

  // The speedup is only meaningful if both engines routed identically: the
  // per-seed digests fold every next hop and every path-cost bit pattern.
  const auto& di = inc.scalar("route_digest");
  const auto& df = full.scalar("route_digest");
  if (di.mean() != df.mean() || di.min() != df.min() || di.max() != df.max()) {
    std::fprintf(stderr, "FATAL: incremental/full route_digest mismatch (%.0f vs %.0f)\n",
                 di.mean(), df.mean());
    return 1;
  }
  bench::note("route_digest cross-check: incremental == full (bit-identical routing).");

  return bench::write_report(report, opts) ? 0 : 1;
}
