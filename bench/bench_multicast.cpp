// MCAST — §III-B: overlay multicast efficiency for monitoring/video fan-out.
//
// Paper claims to regenerate:
//   * "Delivering the streams to multiple endpoints efficiently requires a
//     multicast capability that is not practically available on the
//     Internet, but is possible at the overlay level."
//   * "the overlay is able to construct the most efficient multicast tree to
//     route messages to all overlay nodes that have clients in the group";
//     "Only receivers need to join the multicast group".
//   * Anycast: "delivered to exactly one member of the relevant group."
//
// Setup: continental-US overlay; one video source at NYC; r receiver clients
// spread round-robin over the other 11 sites. Compare backbone bytes carried
// per delivered message: overlay multicast tree vs unicast mesh (the source
// sends one copy per receiver — what an application must do without
// multicast).
#include "bench_common.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"

namespace {

using namespace son;
using namespace son::sim::literals;
using overlay::GroupId;
using overlay::NodeId;
using sim::Duration;

constexpr GroupId kGroup = 1000;
constexpr std::size_t kPayload = 1200;

exp::Metrics run(int receivers, bool use_multicast, int messages, std::uint64_t seed) {
  sim::Simulator sim;
  net::Internet inet{sim, sim::Rng{seed}};
  const auto map = topo::continental_us();
  const auto u = topo::build_dual_isp(inet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{inet, u.overlay, u.hosts, cfg, sim::Rng{seed + 1}};

  // Receiver clients round-robin over the 11 non-source sites; several
  // clients may share a site (the two-level hierarchy absorbs them: the
  // tree's cost depends on member NODES, not client count).
  std::vector<overlay::ClientEndpoint*> receivers_eps;
  std::uint64_t delivered = 0;
  for (int r = 0; r < receivers; ++r) {
    const NodeId node = static_cast<NodeId>(1 + (r % 11));
    auto& ep = net.node(node).connect(static_cast<overlay::VirtualPort>(300 + r / 11));
    ep.join(kGroup);
    ep.set_handler([&delivered](const overlay::Message&, Duration) { ++delivered; });
    receivers_eps.push_back(&ep);
  }
  net.settle(3_s);

  const std::uint64_t base_bytes = inet.backbone_bytes_carried();
  auto& src = net.node(0).connect(99);
  overlay::ServiceSpec spec;
  for (int i = 0; i < messages; ++i) {
    if (use_multicast) {
      src.send(overlay::Destination::multicast(kGroup), overlay::make_payload(kPayload),
               spec);
    } else {
      // Unicast mesh: one copy per receiver node+port, as an application
      // without multicast must.
      for (int r = 0; r < receivers; ++r) {
        const NodeId node = static_cast<NodeId>(1 + (r % 11));
        src.send(overlay::Destination::unicast(
                     node, static_cast<overlay::VirtualPort>(300 + r / 11)),
                 overlay::make_payload(kPayload), spec);
      }
    }
  }
  sim.run_for(2_s);

  // Subtract control-plane chatter measured on an idle twin interval.
  const std::uint64_t traffic_bytes = inet.backbone_bytes_carried() - base_bytes;
  exp::Metrics m;
  m.scalar("backbone_bytes_per_msg", static_cast<double>(traffic_bytes) / messages);
  m.scalar("deliveries_per_msg", static_cast<double>(delivered) / messages);
  return m;
}

/// Anycast spot check: "delivered to exactly one member" (the nearest).
exp::Metrics run_anycast(std::uint64_t seed) {
  sim::Simulator sim;
  net::Internet inet{sim, sim::Rng{seed}};
  const auto map = topo::continental_us();
  const auto u = topo::build_dual_isp(inet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{inet, u.overlay, u.hosts, cfg, sim::Rng{seed + 1}};
  std::uint64_t wdc = 0, lax = 0;
  auto& near_ep = net.node(1).connect(40);  // WDC, near NYC
  near_ep.join(2000);
  near_ep.set_handler([&](const overlay::Message&, Duration) { ++wdc; });
  auto& far_ep = net.node(9).connect(40);  // LAX
  far_ep.join(2000);
  far_ep.set_handler([&](const overlay::Message&, Duration) { ++lax; });
  net.settle(3_s);
  auto& src = net.node(0).connect(41);
  for (int i = 0; i < 100; ++i) {
    src.send(overlay::Destination::anycast(2000), overlay::make_payload(100),
             overlay::ServiceSpec{});
  }
  sim.run_for(1_s);
  exp::Metrics m;
  m.scalar("near_received", static_cast<double>(wdc));
  m.scalar("far_received", static_cast<double>(lax));
  return m;
}

std::string cell_label(int r, bool mc) {
  return "r=" + std::to_string(r) + (mc ? "/multicast" : "/unicast");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "multicast", 1, 600);
  const int messages = opts.quick ? 100 : 500;

  bench::heading("MCAST", "Overlay multicast vs unicast mesh (§III-B)");
  bench::note("US overlay; video source at NYC, %d x 1200 B messages; r receiver", messages);
  bench::note("clients spread over the 11 other sites. Backbone bytes per message");
  bench::note("include control chatter (hellos, LSAs) during the measurement window.");

  const std::vector<int> receiver_counts{2, 4, 8, 16, 32};
  exp::Experiment ex{opts};
  for (const int r : receiver_counts) {
    for (const bool mc : {true, false}) {
      exp::Json params = exp::Json::object();
      params["receivers"] = static_cast<std::int64_t>(r);
      params["mode"] = mc ? "multicast" : "unicast mesh";
      ex.add_cell(cell_label(r, mc), std::move(params),
                  [r, mc, messages](std::uint64_t seed) {
                    // Distinct streams per (mode, receiver count), as before.
                    return run(r, mc, messages,
                               seed + static_cast<std::uint64_t>(r) + (mc ? 0 : 100));
                  });
    }
  }
  {
    exp::Json params = exp::Json::object();
    params["mode"] = "anycast";
    ex.add_cell("anycast", std::move(params),
                [](std::uint64_t seed) { return run_anycast(seed + 1000); },
                /*reps_override=*/1);
  }
  const exp::Report report = ex.run();

  bench::Table t{{"receivers", "mode", "backbone B/msg", "deliveries/msg", "ratio"}, 16};
  t.print_header();
  for (const int r : receiver_counts) {
    const auto& mc = report.cell(cell_label(r, true));
    const auto& uc = report.cell(cell_label(r, false));
    t.cell(static_cast<std::uint64_t>(r));
    t.cell(std::string{"multicast"});
    t.cell(mc.scalar_mean("backbone_bytes_per_msg"), "%.0f");
    t.cell(mc.scalar_mean("deliveries_per_msg"), "%.1f");
    t.cell(std::string{"1.0x"});
    t.end_row();
    t.cell(static_cast<std::uint64_t>(r));
    t.cell(std::string{"unicast mesh"});
    t.cell(uc.scalar_mean("backbone_bytes_per_msg"), "%.0f");
    t.cell(uc.scalar_mean("deliveries_per_msg"), "%.1f");
    t.cell(uc.scalar_mean("backbone_bytes_per_msg") / mc.scalar_mean("backbone_bytes_per_msg"),
           "%.1fx");
    t.end_row();
  }
  bench::note("");
  bench::note("Expected shape: the multicast tree's cost saturates once every site has");
  bench::note("a member (the two-level hierarchy makes extra clients per site free),");
  bench::note("while the unicast mesh grows linearly in the number of clients.");

  const auto& any = report.cell("anycast");
  bench::note("");
  bench::note("Anycast: 100 sends from NYC to a group with members at WDC and LAX ->");
  bench::note("WDC (nearest) received %.0f, LAX received %.0f (expected 100 / 0).",
              any.scalar_mean("near_received"), any.scalar_mean("far_received"));

  return bench::write_report(report, opts) ? 0 : 1;
}
