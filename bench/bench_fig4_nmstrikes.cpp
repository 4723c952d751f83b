// FIG4 — Reproduces Figure 4 and the §IV-A claims for the NM-Strikes
// real-time recovery protocol (live broadcast-quality video).
//
// Paper claims to regenerate:
//   * "Timely delivery within about 200ms is critical" and "On the scale of
//     a continent with a 40ms propagation delay, the 200ms latency bound
//     allows about 160ms for the protocol to recover lost packets."
//   * N spaced requests x M spaced retransmissions "reduce the probability
//     that all of the requests are affected by the same correlated loss
//     event"; spacing is the key design choice (ablated below).
//   * "The overall cost of the NM-Strikes protocol is 1 + Mp."
//
// Setup: a 40 ms continental path as 4 overlay hops of 10 ms, with bursty
// (Gilbert-Elliott) loss on every fiber hop. Live video at 1000 pkt/s.
// Deadline: 200 ms one way.
#include "bench_common.hpp"
#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"
#include "overlay/realtime.hpp"

namespace {

using namespace son;
using namespace son::sim::literals;
using overlay::LinkProtocol;
using sim::Duration;

struct Config {
  const char* label;
  LinkProtocol proto;
  std::uint8_t n = 1;
  std::uint8_t m = 1;
  bool spread = true;
};

exp::Metrics run(const Config& cfg, double mean_bad_ms, Duration traffic_time,
                 std::uint64_t seed) {
  sim::Simulator sim;
  overlay::ChainOptions copts;
  copts.n_nodes = 5;  // 4 hops x 10 ms = 40 ms continent
  copts.hop_latency = 10_ms;
  copts.node.link_protocols.nm_spread = cfg.spread;
  auto fx = overlay::build_chain(sim, copts, sim::Rng{seed});

  net::GilbertElliottLoss::Params ge;
  ge.mean_good_time = 2_s;
  ge.mean_bad_time = Duration::from_millis_f(mean_bad_ms);
  ge.loss_good = 0.0005;
  ge.loss_bad = 0.75;
  std::uint64_t k = 0;
  for (const auto link : fx.hop_links) {
    const auto [a, b] = fx.internet->link_endpoints(link);
    fx.internet->link_dir(link, a).set_loss_model(
        net::make_gilbert_elliott(ge, sim::Rng{seed + 100 + k}));
    fx.internet->link_dir(link, b).set_loss_model(
        net::make_gilbert_elliott(ge, sim::Rng{seed + 200 + k}));
    ++k;
  }
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(100);
  auto& dst = fx.overlay->node(4).connect(200);
  client::MeasuringSink sink{dst};

  overlay::ServiceSpec spec;
  spec.scheme = overlay::RouteScheme::kDissemination;
  spec.custom_mask = fx.chain_mask();
  spec.link_protocol = cfg.proto;
  spec.deadline = 200_ms;
  spec.nm_requests = cfg.n;
  spec.nm_retransmissions = cfg.m;

  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 1200, .rate_pps = 1000},
                            overlay::Destination::unicast(4, 200), sim.now(),
                            sim.now() + traffic_time};
  sim.run_for(traffic_time + 5_s);

  // Cost: data+retransmission frames per hop, averaged over hops, per
  // message (the paper's sender->receiver side cost).
  double data_frames = 0.0;
  std::size_t hops = 0;
  for (std::size_t i = 0; i < fx.hop_overlay_links.size(); ++i) {
    auto* ep = dynamic_cast<overlay::RealtimeEndpointBase*>(
        fx.overlay->node(static_cast<overlay::NodeId>(i))
            .find_endpoint(fx.hop_overlay_links[i], cfg.proto));
    if (ep != nullptr) {
      data_frames +=
          static_cast<double>(ep->stats().data_sent + ep->stats().retransmissions_sent);
      ++hops;
    }
  }

  exp::Metrics m;
  m.scalar("delivered_frac", sink.delivery_ratio(sender.totals().sent));
  m.scalar("within_deadline_frac", sink.delivered_within(sender.totals().sent, 200_ms));
  m.samples("latency_ms").merge(sink.latencies_ms());
  m.scalar("cost", hops > 0 && sender.totals().sent > 0
                       ? data_frames / static_cast<double>(hops) /
                             static_cast<double>(sender.totals().sent)
                       : 1.0);
  return m;
}

std::string cell_label(double bad_ms, const Config& cfg) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "bad=%.0fms/%s", bad_ms, cfg.label);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "fig4_nmstrikes", 1, 42);
  const Duration traffic_time = opts.quick ? 8_s : 30_s;

  bench::heading("FIG4", "NM-Strikes real-time recovery under bursty loss (Fig. 4, §IV-A)");
  bench::note("Topology: 40 ms continental path as 4 overlay hops of 10 ms.");
  bench::note("Loss: Gilbert-Elliott bursts (75%% loss while bad) on every fiber hop.");
  bench::note("Flow: 1000 pkt/s live video for %.0f s, deadline 200 ms one-way.",
              traffic_time.to_seconds_f());

  const std::vector<Config> configs{
      {"best-effort", LinkProtocol::kBestEffort, 0, 0, true},
      {"simple(1,1)", LinkProtocol::kRealtimeSimple, 1, 1, true},
      {"NM(2,2)", LinkProtocol::kRealtimeNM, 2, 2, true},
      {"NM(3,3)", LinkProtocol::kRealtimeNM, 3, 3, true},
      {"NM(3,3)-b2b", LinkProtocol::kRealtimeNM, 3, 3, false},  // ablation
  };
  const std::vector<double> burst_ms{20.0, 60.0};

  exp::Experiment ex{opts};
  for (const double bad_ms : burst_ms) {
    for (const auto& cfg : configs) {
      exp::Json params = exp::Json::object();
      params["mean_bad_ms"] = bad_ms;
      params["protocol"] = cfg.label;
      params["n"] = static_cast<std::uint64_t>(cfg.n);
      params["m"] = static_cast<std::uint64_t>(cfg.m);
      params["spread"] = cfg.spread;
      ex.add_cell(cell_label(bad_ms, cfg), std::move(params),
                  [cfg, bad_ms, traffic_time](std::uint64_t seed) {
                    return run(cfg, bad_ms, traffic_time, seed);
                  });
    }
  }
  const exp::Report report = ex.run();

  for (const double bad_ms : burst_ms) {
    const double avg_p = (2000.0 * 0.0005 + bad_ms * 0.75) / (2000.0 + bad_ms);
    std::printf("\n  Loss-burst duration: mean %.0f ms (avg loss %.2f%%)\n", bad_ms,
                100.0 * avg_p);
    bench::Table t{{"protocol", "in<=200ms", "delivered", "p99.9 ms", "cost", "1+Mp"}};
    t.print_header();
    for (const auto& cfg : configs) {
      const auto& c = report.cell(cell_label(bad_ms, cfg));
      t.cell(std::string{cfg.label});
      t.cell(100.0 * c.scalar_mean("within_deadline_frac"), "%.3f%%");
      t.cell(100.0 * c.scalar_mean("delivered_frac"), "%.3f%%");
      t.cell(c.samples("latency_ms").quantile(0.999));
      t.cell(c.scalar_mean("cost"), "%.4f");
      t.cell(cfg.proto == LinkProtocol::kRealtimeNM ? 1.0 + cfg.m * avg_p : 1.0 + avg_p,
             "%.4f");
      t.end_row();
    }
  }
  bench::note("");
  bench::note("Expected shape: best-effort loses the burst losses outright; simple(1,1)");
  bench::note("recovers isolated losses but fails inside bursts; NM with spacing pushes");
  bench::note("timely delivery to ~100%%; back-to-back (b2b) ablation shows spacing is");
  bench::note("what defeats correlated loss. Measured cost tracks 1 + Mp (requests only");
  bench::note("fire on actual gaps, so the effective M*p stays below the worst case).");

  return bench::write_report(report, opts) ? 0 : 1;
}
