// §IV-A Live broadcast-quality video: a two-way interview between studios in
// New York and Los Angeles. "Timely delivery within about 200ms is critical
// to support natural interaction"; the NM-Strikes protocol recovers from
// bursty loss while guaranteeing timeliness.
#include <cstdio>

#include "client/flow_engine.hpp"
#include "overlay/network.hpp"
#include "sim/stats.hpp"

using namespace son;
using namespace son::sim::literals;

namespace {

struct Leg {
  const char* name;
  std::uint64_t sent = 0;
  std::uint64_t on_time = 0;
  std::uint64_t late = 0;
  sim::SampleSet lat_ms;
};

}  // namespace

int main() {
  sim::Simulator sim;
  net::Internet internet{sim, sim::Rng{31}};
  const auto map = topo::continental_us();
  const auto underlay = topo::build_dual_isp(internet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{internet, underlay.overlay, underlay.hosts, cfg, sim::Rng{32}};

  // Bursty loss on every backbone fiber: short windows of heavy loss, the
  // regime NM-Strikes was designed for.
  net::GilbertElliottLoss::Params ge;
  ge.mean_good_time = 1500_ms;
  ge.mean_bad_time = 40_ms;
  ge.loss_good = 0.0005;
  ge.loss_bad = 0.7;
  sim::Rng lossrng{33};
  for (std::size_t e = 0; e < map.edges.size(); ++e) {
    for (const auto* links : {&underlay.links_a, &underlay.links_b}) {
      const net::LinkId l = (*links)[e];
      if (l == net::kInvalidLink) continue;
      const auto [a, b] = internet.link_endpoints(l);
      internet.link_dir(l, a).set_loss_model(
          net::make_gilbert_elliott(ge, lossrng.fork(l * 2)));
      internet.link_dir(l, b).set_loss_model(
          net::make_gilbert_elliott(ge, lossrng.fork(l * 2 + 1)));
    }
  }
  net.settle(3_s);

  Leg legs[2] = {{"NYC->LAX", 0, 0, 0, {}}, {"LAX->NYC", 0, 0, 0, {}}};
  auto& nyc = net.node(0).connect(7000);
  auto& lax = net.node(9).connect(7000);
  const auto wire = [&](overlay::ClientEndpoint& ep, Leg& leg) {
    ep.set_handler([&leg](const overlay::Message&, sim::Duration lat) {
      leg.lat_ms.add(lat.to_millis_f());
      (lat <= 200_ms ? leg.on_time : leg.late)++;
    });
  };
  wire(lax, legs[0]);
  wire(nyc, legs[1]);

  overlay::ServiceSpec live;
  live.link_protocol = overlay::LinkProtocol::kRealtimeNM;
  live.deadline = 200_ms;  // the live-TV interactivity bound
  live.nm_requests = 3;
  live.nm_retransmissions = 3;

  // 60 s of 1.5 Mbps video each way.
  client::FlowEngine cam_nyc{sim, nyc, {.spec = live, .payload_bytes = 1200, .rate_pps = 156},
                             overlay::Destination::unicast(9, 7000), sim.now(), sim.now() + 60_s};
  client::FlowEngine cam_lax{sim, lax, {.spec = live, .payload_bytes = 1200, .rate_pps = 156},
                             overlay::Destination::unicast(0, 7000), sim.now(), sim.now() + 60_s};
  sim.run_for(62_s);
  legs[0].sent = cam_nyc.totals().sent;
  legs[1].sent = cam_lax.totals().sent;

  std::printf("live interview, 60 s each way, NM-Strikes(3,3), 200 ms deadline,\n");
  std::printf("bursty loss on every fiber (avg %.2f%%):\n\n",
              100.0 * (1500.0 * 0.0005 + 40.0 * 0.7) / 1540.0);
  for (const auto& leg : legs) {
    std::printf("  %-9s sent %llu, on time %llu (%.3f%%), late %llu, p99 %.1f ms\n",
                leg.name, static_cast<unsigned long long>(leg.sent),
                static_cast<unsigned long long>(leg.on_time),
                100.0 * static_cast<double>(leg.on_time) / static_cast<double>(leg.sent),
                static_cast<unsigned long long>(leg.late), leg.lat_ms.quantile(0.99));
  }
  std::printf("\nOn a ~26 ms continental path the 200 ms bound leaves ~170 ms of\n");
  std::printf("recovery budget; the spaced N requests x M retransmissions bypass the\n");
  std::printf("window of correlated loss, so the interview stays natural (§IV-A).\n");
  return 0;
}
