// OVHD — §II-D: cost and deployment considerations.
//
// Paper claims to regenerate:
//   * "the computational costs to traverse up and down the network stack at
//     overlay nodes on today's commodity computers amount to less than 1ms
//     additional latency per intermediate overlay node on the path" —
//     measured here as REAL CPU time of the forwarding hot path
//     (google-benchmark), including the intrusion-tolerant variant with
//     HMAC-SHA256 verify + re-sign.
//   * "the latency overhead of using a multi-hop indirect overlay path
//     rather than the direct Internet path is small" — measured on the
//     continental-US map as overlay-path vs direct-fiber propagation.
//
// The CPU section is real-time measurement and inherently machine-dependent;
// it is skipped under --quick and never part of the deterministic report.
// The path-overhead table is pure geometry and runs through son::exp.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "overlay/network.hpp"
#include "topo/backbones.hpp"

namespace {

using namespace son;
using namespace son::sim::literals;

/// A settled US overlay node to run forwarding lookups against.
struct HotPathFixture {
  sim::Simulator sim;
  net::Internet inet{sim, sim::Rng{1}};
  topo::BackboneMap map = topo::continental_us();
  topo::BuiltUnderlay u;
  std::unique_ptr<overlay::OverlayNetwork> net;

  explicit HotPathFixture(bool authenticate) {
    u = topo::build_dual_isp(inet, map, topo::DualIspOptions{});
    overlay::NodeConfig cfg;
    cfg.authenticate = authenticate;
    net = std::make_unique<overlay::OverlayNetwork>(sim, inet, map, u, cfg, sim::Rng{2});
    net->settle(3_s);
  }

  overlay::Message msg(overlay::RouteScheme scheme, std::uint64_t i) {
    overlay::Message m;
    m.hdr.origin = 0;
    m.hdr.dest = overlay::Destination::unicast(9, 50);
    m.hdr.origin_id = i;
    m.hdr.scheme = scheme;
    m.hdr.mask = 0b1111111111;
    m.payload = overlay::make_payload(1200);
    return m;
  }
};

void BM_Forward_LinkState(benchmark::State& state) {
  HotPathFixture f{false};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.net->node(4).bench_forward_lookup(
        f.msg(overlay::RouteScheme::kLinkState, ++i), overlay::kInvalidLinkBit));
  }
}
BENCHMARK(BM_Forward_LinkState);

void BM_Forward_SourceBased(benchmark::State& state) {
  HotPathFixture f{false};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.net->node(4).bench_forward_lookup(
        f.msg(overlay::RouteScheme::kFlooding, ++i), overlay::kInvalidLinkBit));
  }
}
BENCHMARK(BM_Forward_SourceBased);

/// IT-mode per-hop cost: verify the arriving tag (keyed to the ingress
/// link's peer) + re-sign toward the routed egress peer. The arrival tag is
/// built once outside the loop, so the loop measures exactly the two HMACs
/// plus the routing lookup.
void BM_Forward_WithHmacAuth(benchmark::State& state) {
  HotPathFixture f{true};
  auto& node = f.net->node(4);
  const overlay::Message m = f.msg(overlay::RouteScheme::kLinkState, 1);
  const overlay::LinkBit ingress = node.link_bits().front();
  const crypto::Tag in_auth = node.bench_make_arrival_tag(m, ingress);
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.bench_forward_lookup(m, ingress, &in_auth));
  }
}
BENCHMARK(BM_Forward_WithHmacAuth);

void BM_Sha256_1200B(benchmark::State& state) {
  std::vector<std::uint8_t> buf(1200, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1200);
}
BENCHMARK(BM_Sha256_1200B);

void BM_HmacSign_1200B(benchmark::State& state) {
  std::vector<std::uint8_t> buf(1200, 0xAB);
  std::vector<std::uint8_t> key(32, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_tag(key, buf));
  }
}
BENCHMARK(BM_HmacSign_1200B);

void BM_LinkStateRecompute_12Nodes(benchmark::State& state) {
  // Cost of a full routing-table recomputation after an LSA (the reroute
  // hot path): Dijkstra over the 12-node / 19-link US overlay.
  overlay::TopologyDb db{topo::overlay_graph(topo::continental_us())};
  overlay::GroupDb groups{12};
  overlay::Router router{0, db, groups};
  std::uint64_t seq = 1;
  for (auto _ : state) {
    overlay::LinkStateAd ad;
    ad.origin = 0;
    ad.seq = seq++;
    ad.links = {{0, true, 2.0 + static_cast<double>(seq % 3), 0.0}};
    db.apply(ad);
    benchmark::DoNotOptimize(router.next_hop(9));
  }
}
BENCHMARK(BM_LinkStateRecompute_12Nodes);

void BM_DisjointPathComputation(benchmark::State& state) {
  const topo::Graph g = topo::overlay_graph(topo::continental_us());
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::k_node_disjoint_paths(g, 0, 9, 2));
  }
}
BENCHMARK(BM_DisjointPathComputation);

void BM_DisseminationGraphComputation(benchmark::State& state) {
  const topo::Graph g = topo::overlay_graph(topo::continental_us());
  topo::DissemOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::dissemination_graph(g, 0, 7, opts));
  }
}
BENCHMARK(BM_DisseminationGraphComputation);

/// Pure-geometry path overhead for one site pair; deterministic (no Rng use,
/// but routed through the runner so it lands in the structured report).
exp::Metrics run_pair(topo::NodeIndex a, topo::NodeIndex b, std::uint64_t /*seed*/) {
  const auto map = topo::continental_us();
  const topo::Graph g = topo::overlay_graph(map);
  const auto direct = topo::fiber_latency(map.cities[a], map.cities[b]);
  const auto path = topo::shortest_path(g, a, b);
  const double overlay_ms = path ? topo::path_cost(g, *path) : 0.0;
  exp::Metrics m;
  m.scalar("direct_ms", direct.to_millis_f());
  m.scalar("overlay_ms", overlay_ms);
  m.scalar("hops", static_cast<double>(path ? path->size() - 1 : 0));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the runner flags first; google-benchmark sees the remainder.
  const auto opts = exp::Options::parse(argc, argv, "overhead", 1, 1);

  if (!opts.quick) {
    bench::heading("OVHD-A", "Per-node processing cost, real CPU time (§II-D)");
    bench::note("Paper: 'less than 1ms additional latency per intermediate overlay node'.");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }

  bench::heading("OVHD-B", "Overlay path latency vs direct fiber (§II-D)");
  bench::note("One-way propagation: multi-hop overlay route vs a hypothetical direct");
  bench::note("great-circle fiber between the sites (the best the native Internet");
  bench::note("could possibly do).");

  const auto map = topo::continental_us();
  const std::vector<std::pair<topo::NodeIndex, topo::NodeIndex>> pairs{
      {0, 9}, {0, 11}, {3, 11}, {2, 10}, {0, 7}, {4, 3}};
  exp::Experiment ex{opts};
  for (const auto& [a, b] : pairs) {
    const std::string label = map.cities[a].name + "-" + map.cities[b].name;
    exp::Json params = exp::Json::object();
    params["src"] = map.cities[a].name;
    params["dst"] = map.cities[b].name;
    ex.add_cell(label, std::move(params),
                [a, b](std::uint64_t seed) { return run_pair(a, b, seed); },
                /*reps_override=*/1);
  }
  const exp::Report report = ex.run();

  bench::Table t{{"pair", "direct ms", "overlay ms", "overhead", "hops"}, 14};
  t.print_header();
  for (const auto& [a, b] : pairs) {
    const auto& c = report.cell(map.cities[a].name + "-" + map.cities[b].name);
    t.cell(map.cities[a].name + "-" + map.cities[b].name);
    t.cell(c.scalar_mean("direct_ms"));
    t.cell(c.scalar_mean("overlay_ms"));
    t.cell(c.scalar_mean("overlay_ms") / c.scalar_mean("direct_ms"), "%.2fx");
    t.cell(static_cast<std::uint64_t>(c.scalar_mean("hops")));
    t.end_row();
  }
  bench::note("");
  bench::note("Expected shape: overlay paths cost ~1.0-1.3x the direct fiber; with");
  bench::note("<1 ms processing per intermediate node (see BM_Forward_* in OVHD-A,");
  bench::note("which measure the actual hot path in nanoseconds), the end-to-end");
  bench::note("overhead of the structured overlay is a few ms on a ~35-40 ms path.");

  return bench::write_report(report, opts) ? 0 : 1;
}
