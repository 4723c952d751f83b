// DISSEM — §V-A: real-time remote manipulation with dissemination graphs.
//
// Paper claims to regenerate:
//   * "the roundtrip latency must be no more than about 130ms, translating
//     to a one-way latency requirement of 65ms. On the scale of a continent,
//     where propagation delay may be around 40ms, this leaves only 20-25ms
//     of flexibility" — too tight for NM-Strikes, so the approach combines a
//     single-shot recovery protocol [6,7] with targeted redundancy.
//   * "In contrast to disjoint paths, which add redundancy uniformly
//     throughout the network, dissemination graphs can be tailored based on
//     current network conditions to add targeted redundancy in problematic
//     areas of the network" [2].
//
// Setup: 12-node circulant overlay, 10 ms ring hops; flow from node 0 to
// node 6 (40 ms best path: 4 ring hops or 2 chords + ...). Loss problems are
// concentrated AROUND THE DESTINATION (reference [2]'s dominant real-world
// pattern): recurring loss bursts on the destination's incident links.
// Schemes: single path / 2 disjoint paths / destination-problem
// dissemination graph / constrained flooding, all with the RealtimeSimple
// one-shot recovery protocol and a 65 ms one-way deadline.
#include "bench_common.hpp"
#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"

namespace {

using namespace son;
using namespace son::sim::literals;
using overlay::NodeId;
using overlay::RouteScheme;
using sim::Duration;
using sim::TimePoint;

exp::Metrics run(RouteScheme scheme, std::uint8_t k, std::uint8_t fanin,
                 Duration traffic_time, std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(12), gopts,
                                         sim::Rng{seed});
  auto& net = *fx.overlay;
  constexpr NodeId kSrc = 0;
  constexpr NodeId kDst = 6;

  // Destination-problem loss (reference [2]'s dominant pattern): every
  // 800 ms a 120 ms problem hits the destination's area, degrading TWO of
  // its four incident fibers at 90% loss simultaneously; the afflicted pair
  // rotates. Redundancy that happens to enter via the two bad fibers dies;
  // targeted fan-in over all incident links survives.
  const auto& g = net.designed_topology();
  std::vector<net::LinkId> dst_fibers;
  for (const auto& [nbr, e] : g.neighbors(kDst)) dst_fibers.push_back(fx.fiber[e]);
  const std::size_t nf = dst_fibers.size();
  const int n_bursts = static_cast<int>((traffic_time + 2_s).to_seconds_f() / 0.8) + 1;
  for (int burst = 0; burst < n_bursts; ++burst) {
    const auto from = TimePoint::zero() + 3_s + Duration::milliseconds(burst * 800);
    const auto until = from + 120_ms;
    const auto i = static_cast<std::size_t>(burst) % nf;
    const auto j = (i + 1 + static_cast<std::size_t>(burst) / nf % (nf - 1)) % nf;
    for (const auto fiber : {dst_fibers[i], dst_fibers[j]}) {
      const auto [a, b] = fx.internet->link_endpoints(fiber);
      fx.internet->link_dir(fiber, a).add_forced_loss_window(from, until, 0.9);
      fx.internet->link_dir(fiber, b).add_forced_loss_window(from, until, 0.9);
    }
  }
  net.settle(3_s);

  auto& src = net.node(kSrc).connect(49);
  auto& dst = net.node(kDst).connect(50);
  client::MeasuringSink sink{dst};

  overlay::ServiceSpec spec;
  spec.scheme = scheme;
  spec.num_paths = k;
  spec.dissem_dst_fanin = fanin;
  spec.link_protocol = overlay::LinkProtocol::kRealtimeSimple;
  spec.deadline = 65_ms;

  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 400, .rate_pps = 1000},
                            overlay::Destination::unicast(kDst, 50), sim.now(),
                            sim.now() + traffic_time};
  std::uint64_t fwd_before = 0;
  for (NodeId n = 0; n < net.size(); ++n) fwd_before += net.node(n).stats().forwarded;
  sim.run_for(traffic_time + 2_s);
  std::uint64_t fwd_after = 0;
  for (NodeId n = 0; n < net.size(); ++n) fwd_after += net.node(n).stats().forwarded;

  exp::Metrics m;
  m.scalar("delivered_frac", sink.delivery_ratio(sender.totals().sent));
  m.scalar("within_65ms_frac", sink.delivered_within(sender.totals().sent, 65_ms));
  m.scalar("copies_per_msg",
           static_cast<double>(fwd_after - fwd_before) / static_cast<double>(sender.totals().sent));
  return m;
}

struct S {
  const char* label;
  RouteScheme scheme;
  std::uint8_t k;
  std::uint8_t fanin;
};

const std::vector<S> kSchemes{
    {"single path", RouteScheme::kDisjointPaths, 1, 0},
    {"2 disjoint paths", RouteScheme::kDisjointPaths, 2, 0},
    {"dissem graph (fanin 2)", RouteScheme::kDissemination, 2, 2},
    {"constrained flooding", RouteScheme::kFlooding, 0, 0},
};

}  // namespace

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "dissemination", 1, 505);
  const Duration traffic_time = opts.quick ? 12_s : 60_s;

  bench::heading("DISSEM",
                 "Dissemination graphs for 65 ms remote manipulation (§V-A, ref [2])");
  bench::note("12-node circulant overlay, 10 ms hops; node 0 -> node 6 (~40 ms path).");
  bench::note("Recurring 120 ms bursts of 80%% loss rotate across the destination's");
  bench::note("incident fibers (destination-problem pattern). 1000 pkt/s for %.0f s,",
              traffic_time.to_seconds_f());
  bench::note("one-shot recovery (RealtimeSimple), deadline 65 ms one-way.");

  exp::Experiment ex{opts};
  for (const auto& s : kSchemes) {
    exp::Json params = exp::Json::object();
    params["scheme"] = s.label;
    params["k"] = static_cast<std::uint64_t>(s.k);
    params["dst_fanin"] = static_cast<std::uint64_t>(s.fanin);
    ex.add_cell(s.label, std::move(params), [s, traffic_time](std::uint64_t seed) {
      return run(s.scheme, s.k, s.fanin, traffic_time, seed);
    });
  }
  const exp::Report report = ex.run();

  bench::Table t{{"scheme", "in<=65ms", "delivered", "copies/msg"}, 22};
  t.print_header();
  for (const auto& s : kSchemes) {
    const auto& c = report.cell(s.label);
    t.cell(std::string{s.label});
    t.cell(100.0 * c.scalar_mean("within_65ms_frac"), "%.3f%%");
    t.cell(100.0 * c.scalar_mean("delivered_frac"), "%.3f%%");
    t.cell(c.scalar_mean("copies_per_msg"), "%.1f");
    t.end_row();
  }
  bench::note("");
  bench::note("Expected shape: a single path dies whenever its last hop is inside a");
  bench::note("burst; 2 disjoint paths still lose packets when a burst covers their");
  bench::note("shared last-hop region; the destination-problem dissemination graph");
  bench::note("adds targeted fan-in at the destination and approaches flooding's");
  bench::note("timeliness at a fraction of flooding's cost.");

  return bench::write_report(report, opts) ? 0 : 1;
}
