// REROUTE — §II-A: "allowing fast reactions to changes in the network, with
// the ability to route around problems at a sub-second scale. This is in
// contrast to the 40 seconds to minutes that BGP may take to converge during
// some network faults."
//
// Scenario: a continuous NYC->LAX flow at 500 pkt/s over the continental-US
// dual-ISP deployment. At t=10 s a fiber on the in-use route is cut. Three
// configurations:
//   (a) native IP (no overlay): the flow rides raw datagrams; the cut
//       blackholes it for the BGP convergence delay (40 s).
//   (b) overlay, one ISP's fiber cut: the overlay link stays up by failing
//       over to the second ISP's channel (multihoming, Fig. 1) — outage is
//       just the hello-based detection time.
//   (c) overlay, BOTH ISPs' fiber cut: the overlay link goes down; the
//       connectivity graph maintenance floods the change and traffic
//       reroutes around it at the overlay level — still sub-second.
//
// Metric: the longest gap in delivery at the receiver, plus messages lost.
#include <algorithm>

#include "bench_common.hpp"
#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"

namespace {

using namespace son;
using namespace son::sim::literals;
using sim::Duration;
using sim::TimePoint;

exp::Metrics gap_metrics(const std::vector<double>& arrivals_s, std::uint64_t sent,
                         std::uint64_t received, double start_s, double end_s) {
  double max_gap_ms = 0.0;
  double prev = start_s;
  for (const double a : arrivals_s) {
    max_gap_ms = std::max(max_gap_ms, (a - prev) * 1000.0);
    prev = a;
  }
  max_gap_ms = std::max(max_gap_ms, (end_s - prev) * 1000.0);
  exp::Metrics m;
  m.scalar("max_gap_ms", max_gap_ms);
  m.scalar("lost", static_cast<double>(sent - received));
  m.scalar("sent", static_cast<double>(sent));
  return m;
}

constexpr double kRate = 500.0;
const TimePoint kCutAt = TimePoint::zero() + 10_s;

/// (a) Native IP: raw datagrams NYC host -> LAX host, no overlay.
exp::Metrics run_native(Duration run_for, std::uint64_t seed) {
  sim::Simulator sim;
  net::Internet inet{sim, sim::Rng{seed}};
  const auto map = topo::continental_us();
  const auto u = topo::build_dual_isp(inet, map, topo::DualIspOptions{});

  std::vector<double> arrivals;
  std::uint64_t received = 0;
  inet.bind(u.hosts[9], [&](const net::Datagram&) {
    ++received;
    arrivals.push_back(sim.now().to_seconds_f());
  });
  std::uint64_t sent = 0;
  std::function<void()> tick = [&]() {
    if (sim.now() >= TimePoint::zero() + run_for) return;
    net::Datagram d;
    d.src = u.hosts[0];
    d.dst = u.hosts[9];
    // Pin to ISP A (single-provider customer), the provider whose fiber is cut.
    net::Internet::SendOptions opts;
    opts.src_attach = 0;
    opts.dst_attach = 0;
    inet.send(std::move(d), opts);
    ++sent;
    sim.schedule(Duration::from_seconds_f(1.0 / kRate), tick);
  };
  sim.schedule(Duration::zero(), tick);

  // Cut the ISP A fiber on the believed route NYC->LAX. The designed route
  // goes through CHI/DEN or the south; cut whatever link the route uses
  // first: find it from the router path.
  sim.schedule_at(kCutAt, [&]() {
    const auto path = inet.path_routers(u.hosts[0], 0, u.hosts[9], 0);
    if (path && path->size() >= 2) {
      const auto link = inet.find_link((*path)[0], (*path)[1]);
      inet.set_link_up(link, false);
    }
  });
  sim.run_until(TimePoint::zero() + run_for);
  return gap_metrics(arrivals, sent, received, 0.0, run_for.to_seconds_f());
}

/// (b)/(c) Overlay flow; cut one or both ISPs' fiber under the first overlay
/// link of the route in use.
exp::Metrics run_overlay(bool cut_both_isps, Duration run_for, std::uint64_t seed) {
  sim::Simulator sim;
  net::Internet inet{sim, sim::Rng{seed}};
  const auto map = topo::continental_us();
  const auto u = topo::build_dual_isp(inet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{inet, u.overlay, u.hosts, cfg, sim::Rng{seed + 1}};
  net.settle(3_s);

  auto& src = net.node(0).connect(49);   // NYC
  auto& dst = net.node(9).connect(50);   // LAX
  std::vector<double> arrivals;
  client::MeasuringSink sink{dst};
  sink.on_message([&](const overlay::Message&, Duration) {
    arrivals.push_back(sim.now().to_seconds_f());
  });

  overlay::ServiceSpec spec;  // link-state + best effort: pure rerouting test
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 800, .rate_pps = kRate},
                            overlay::Destination::unicast(9, 50), sim.now(),
                            TimePoint::zero() + 3_s + run_for};

  sim.schedule_at(TimePoint::zero() + 3_s + (kCutAt - TimePoint::zero()), [&]() {
    // Cut the fiber (both ISPs' copies if requested) under the first overlay
    // link of the current route.
    const overlay::LinkBit nh = net.node(0).router().next_hop(9);
    inet.set_link_up(u.links_a[nh], false);
    if (cut_both_isps) inet.set_link_up(u.links_b[nh], false);
  });
  sim.run_until(TimePoint::zero() + 3_s + run_for);
  return gap_metrics(arrivals, sender.totals().sent, sink.received(), 3.0,
                     3.0 + run_for.to_seconds_f());
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "rerouting", 1, 1);
  // The native-IP cell must outlive the 40 s BGP convergence delay to
  // measure it; the quick mode keeps 15 s past the cut instead of 50 s.
  const Duration run_for = opts.quick ? 25_s : 60_s;

  bench::heading("REROUTE",
                 "Sub-second overlay rerouting vs BGP convergence (§II-A, Fig. 1)");
  bench::note("Flow: NYC -> LAX, 500 pkt/s for %.0f s; fiber cut at t=10 s on the route",
              run_for.to_seconds_f());
  bench::note("in use. Internet BGP-style convergence delay: 40 s. Overlay hellos:");
  bench::note("100 ms, 3 misses to declare a channel dead.");

  struct Row {
    const char* label;
    const char* downtime;
  };
  const std::vector<Row> rows{{"native IP", "BGP (~40s)"},
                              {"overlay, 1 ISP cut", "ISP failover"},
                              {"overlay, 2 ISPs cut", "overlay reroute"}};

  exp::Experiment ex{opts};
  {
    exp::Json params = exp::Json::object();
    params["configuration"] = "native";
    ex.add_cell("native IP", std::move(params),
                [run_for](std::uint64_t seed) { return run_native(run_for, seed); });
  }
  for (const bool both : {false, true}) {
    exp::Json params = exp::Json::object();
    params["configuration"] = both ? "overlay_2isp_cut" : "overlay_1isp_cut";
    ex.add_cell(both ? "overlay, 2 ISPs cut" : "overlay, 1 ISP cut", std::move(params),
                [both, run_for](std::uint64_t seed) {
                  return run_overlay(both, run_for, seed + 1);
                });
  }
  const exp::Report report = ex.run();

  bench::Table t{{"configuration", "max gap ms", "lost", "sent", "downtime"}, 16};
  t.print_header();
  for (const auto& row : rows) {
    const auto& c = report.cell(row.label);
    t.cell(std::string{row.label});
    t.cell(c.scalar_mean("max_gap_ms"), "%.0f");
    t.cell(static_cast<std::uint64_t>(c.scalar_mean("lost")));
    t.cell(static_cast<std::uint64_t>(c.scalar_mean("sent")));
    t.cell(std::string{row.downtime});
    t.end_row();
  }

  bench::note("");
  bench::note("Expected shape: native IP goes dark for ~40,000 ms (BGP); the overlay");
  bench::note("restores the flow in hundreds of ms — via multihoming when one provider");
  bench::note("fails, via overlay-level rerouting when the link is fully severed.");

  return bench::write_report(report, opts) ? 0 : 1;
}
