// CHURN — overlay membership maintenance under node churn.
//
// The paper's overlay is provisioned as a fixed set of sites, but daemons
// crash, recover and rejoin. This bench measures the three things that make
// churn survivable:
//   (a) DETECT+REPAIR: a relay on a live flow's path crash-stops; the
//       delivery gap at the receiver is hello-based detection plus the LSA
//       flood and iSPF repair — compared against the NM-Strikes-style
//       timeliness bound hello_interval * (miss_threshold + 1) + a flood/
//       reroute margin.
//   (b) STABILIZATION vs churn rate: random crash-recover cycles at R
//       cycles/sec for a window; after the last recovery, the time until
//       every node again reaches every other (full pairwise reachability)
//       and every membership table sees the whole overlay alive.
//   (c) PARTITION-THEN-HEAL: crash a vertex cut (splitting the overlay),
//       verify intra-side delivery continues, recover the cut, and measure
//       how long the overlay takes to re-form end-to-end.
//   (d) SHARD DIGEST: the same churned scenario on the sharded kernel at 1
//       worker and at --shards workers must produce the identical delivery
//       digest — churn events ride the control-sim path, so the worker
//       count stays a pure wall-clock knob.
//
// --churn R[,M] overrides the stabilization sweep with a single cell at
// rate R and spacing model M.
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "net/failures.hpp"
#include "overlay/churn.hpp"
#include "overlay/network.hpp"
#include "overlay/sharded.hpp"

namespace {

using namespace son;
using namespace son::sim::literals;
using sim::Duration;
using sim::TimePoint;

/// Membership-enabled node config shared by every cell: origins silent past
/// 2.5 s (evidence normally arrives every <= 1 s via state refresh) are
/// evicted on the sweep.
overlay::NodeConfig churn_node_config() {
  overlay::NodeConfig cfg;
  cfg.dead_origin_timeout = 2500_ms;
  return cfg;
}

/// (a) Crash the relay under a live 0 -> 5 flow on the circulant overlay and
/// measure the receiver-side delivery gap vs the detection bound.
exp::Metrics run_detect(Duration run_for, std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  gopts.node = churn_node_config();
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(10), gopts,
                                         sim::Rng{seed});
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(40);
  auto& dst = fx.overlay->node(5).connect(41);
  std::vector<double> arrivals;
  client::MeasuringSink sink{dst};
  sink.on_message([&](const overlay::Message&, Duration) {
    arrivals.push_back(sim.now().to_seconds_f());
  });

  overlay::ServiceSpec spec;  // link-state: the rerouting path under test
  const TimePoint t0 = sim.now();
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 400, .rate_pps = 500.0},
                            overlay::Destination::unicast(5, 41), t0, t0 + run_for};

  // Crash the CURRENT first-hop relay at t0+5s (resolved at crash time, so
  // the victim is on the path in use, whatever the weights made it).
  overlay::ChurnScript churn{*fx.overlay};
  overlay::NodeId victim = overlay::kInvalidNode;
  sim.schedule_at(t0 + 5_s, [&]() {
    const overlay::LinkBit nh = fx.overlay->node(0).router().next_hop(5);
    const auto& e = fx.overlay->designed_topology().edge(nh);
    victim = static_cast<overlay::NodeId>(e.u == 0 ? e.v : e.u);
    fx.overlay->node(victim).set_crashed(true);
  });
  sim.run_until(t0 + run_for);

  double max_gap_ms = 0.0;
  double prev = t0.to_seconds_f();
  for (const double a : arrivals) {
    max_gap_ms = std::max(max_gap_ms, (a - prev) * 1000.0);
    prev = a;
  }
  const auto& cfg = churn_node_config();
  // Detection: the neighbors declare the victim's channels dead after
  // miss_threshold consecutive losses, i.e. within (miss_threshold + 1)
  // hello intervals of the crash; add a flood + iSPF + in-flight margin.
  const double bound_ms =
      cfg.hello_interval.to_millis_f() * (cfg.hello_miss_threshold + 1) + 300.0;
  exp::Metrics m;
  m.scalar("max_gap_ms", max_gap_ms);
  m.scalar("bound_ms", bound_ms);
  m.scalar("within_bound", max_gap_ms <= bound_ms ? 1.0 : 0.0);
  m.scalar("delivered", static_cast<double>(sink.received()));
  return m;
}

/// (b) Random churn at `rate` cycles/sec for `window`, then measure the time
/// to full stabilization (pairwise reachability + complete membership).
exp::Metrics run_stab(double rate, overlay::ChurnModel model, Duration window,
                      std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  gopts.node = churn_node_config();
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(10), gopts,
                                         sim::Rng{seed});
  fx.overlay->settle(3_s);
  const TimePoint t0 = sim.now();
  const Duration down_for = 4_s;  // > dead_origin_timeout: departures are real

  overlay::ChurnScript churn{*fx.overlay};
  overlay::ChurnScript::RandomChurnConfig ccfg;
  ccfg.from = t0;
  ccfg.until = t0 + window;
  ccfg.events_per_sec = rate;
  ccfg.down_for = down_for;
  ccfg.model = model;
  ccfg.seed = seed;
  const std::size_t cycles = churn.random_churn(ccfg);

  // After the last possible recovery, poll until the overlay is whole again:
  // every pair mutually reachable and every membership table full.
  const std::size_t n = fx.overlay->size();
  const TimePoint churn_end = t0 + window + down_for;
  const TimePoint cap = churn_end + 30_s;
  double stab_ms = -1.0;
  std::function<void()> poll = [&]() {
    bool whole = true;
    for (overlay::NodeId i = 0; i < n && whole; ++i) {
      if (fx.overlay->node(i).membership().alive_count() != n) whole = false;
      for (overlay::NodeId j = 0; j < n && whole; ++j) {
        if (i != j && !std::isfinite(fx.overlay->node(i).router().path_cost_to(j))) {
          whole = false;
        }
      }
    }
    if (whole) {
      stab_ms = (sim.now() - churn_end).to_millis_f();
      return;
    }
    if (sim.now() < cap) sim.schedule(50_ms, poll);
  };
  sim.schedule_at(churn_end, poll);
  sim.run_until(cap);

  std::uint64_t evictions = 0;
  std::uint64_t stale_drops = 0;
  std::uint64_t restarts_seen = 0;
  for (overlay::NodeId i = 0; i < n; ++i) {
    const auto& s = fx.overlay->node(i).stats();
    evictions += s.origin_evictions;
    stale_drops += s.stale_incarnation_drops;
    restarts_seen += s.peer_restarts_seen;
  }
  exp::Metrics m;
  m.scalar("stabilization_ms", stab_ms < 0 ? (cap - churn_end).to_millis_f() : stab_ms);
  m.scalar("stabilized", stab_ms >= 0 ? 1.0 : 0.0);
  m.scalar("cycles", static_cast<double>(cycles));
  m.scalar("origin_evictions", static_cast<double>(evictions));
  m.scalar("stale_incarnation_drops", static_cast<double>(stale_drops));
  m.scalar("peer_restarts_seen", static_cast<double>(restarts_seen));
  return m;
}

/// (c) Crash the vertex cut {4, 5, 8, 9} of C_10(1, 2) — splitting {0..3}
/// from {6, 7} — then recover it and measure the end-to-end re-form time.
exp::Metrics run_partition(std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  gopts.node = churn_node_config();
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(10), gopts,
                                         sim::Rng{seed});
  fx.overlay->settle(3_s);
  const TimePoint t0 = sim.now();

  auto& src = fx.overlay->node(0).connect(40);
  overlay::ServiceSpec spec;
  // Cross-side flow 0 -> 7: blackholed for the whole partition.
  auto& cross_dst = fx.overlay->node(7).connect(41);
  std::vector<double> cross_arrivals;
  client::MeasuringSink cross_sink{cross_dst};
  cross_sink.on_message([&](const overlay::Message&, Duration) {
    cross_arrivals.push_back(sim.now().to_seconds_f());
  });
  client::FlowEngine cross{sim, src, {.spec = spec, .payload_bytes = 300, .rate_pps = 200.0},
                           overlay::Destination::unicast(7, 41), t0, t0 + 30_s};
  // Intra-side flow 0 -> 3: must keep flowing while partitioned.
  auto& intra_dst = fx.overlay->node(3).connect(42);
  client::MeasuringSink intra_sink{intra_dst};
  client::FlowEngine intra{sim, fx.overlay->node(0).connect(43),
                           {.spec = spec, .payload_bytes = 300, .rate_pps = 200.0},
                           overlay::Destination::unicast(3, 42), t0, t0 + 30_s};

  overlay::ChurnScript churn{*fx.overlay};
  const TimePoint cut_at = t0 + 5_s;
  const TimePoint heal_at = t0 + 12_s;  // > dead_origin_timeout: real eviction
  for (const overlay::NodeId v : {4, 5, 8, 9}) {
    churn.crash(cut_at, static_cast<overlay::NodeId>(v));
    churn.recover(heal_at, static_cast<overlay::NodeId>(v));
  }
  sim.run_until(t0 + 30_s);

  // Re-form time: first cross-side delivery after the heal.
  const double heal_s = heal_at.to_seconds_f();
  double reform_ms = -1.0;
  for (const double a : cross_arrivals) {
    if (a >= heal_s) {
      reform_ms = (a - heal_s) * 1000.0;
      break;
    }
  }
  const double intra_expected = 200.0 * 30.0;
  exp::Metrics m;
  m.scalar("reform_ms", reform_ms < 0 ? 30'000.0 : reform_ms);
  m.scalar("reformed", reform_ms >= 0 ? 1.0 : 0.0);
  m.scalar("intra_delivery_ratio",
           static_cast<double>(intra_sink.received()) / intra_expected);
  m.scalar("cross_delivered", static_cast<double>(cross_sink.received()));
  return m;
}

/// (d) The churned sharded scenario: continental map, IT flows, random churn
/// through the control-sim path. Returns the per-node delivery digest folded
/// in node order — must be identical for every worker count.
exp::Metrics run_sharded_churn(unsigned workers, Duration window, std::uint64_t seed) {
  overlay::ShardedMapOptions opts;
  opts.workers = workers;
  opts.underlay.backbone_loss = 0.01;
  opts.net.convergence_delay = 1_s;
  opts.node = churn_node_config();
  auto fx = overlay::build_sharded_map(topo::continental_us(), opts, seed);

  const std::size_t n = fx.underlay.hosts.size();
  std::vector<std::uint64_t> hash(n, 1469598103934665603ULL);
  const auto mix = [](std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    auto& ep = fx.overlay->node(static_cast<overlay::NodeId>(i)).connect(200);
    ep.set_handler([&hash, &mix, i](const overlay::Message& msg, Duration lat) {
      mix(hash[i], msg.hdr.origin_id);
      mix(hash[i], static_cast<std::uint64_t>(lat.ns()));
    });
  }

  fx.overlay->settle(3_s);
  const TimePoint t0 = fx.kernel->now();

  struct Flow {
    overlay::ClientEndpoint& src;
    sim::Simulator& sim;
    overlay::Destination dest;
    overlay::ServiceSpec spec;
    TimePoint stop;
    void tick() {
      if (sim.now() >= stop) return;
      src.send(dest, overlay::make_payload(300), spec);
      sim.schedule(5_ms, [this]() { tick(); });
    }
  };
  std::vector<std::unique_ptr<Flow>> flows;
  for (std::size_t i = 0; i < 6; ++i) {
    auto& fsim = fx.node_sim(static_cast<overlay::NodeId>(i));
    overlay::ServiceSpec spec;
    spec.link_protocol = (i % 2 == 0) ? overlay::LinkProtocol::kITPriority
                                      : overlay::LinkProtocol::kBestEffort;
    flows.push_back(std::make_unique<Flow>(
        Flow{fx.overlay->node(static_cast<overlay::NodeId>(i)).connect(100), fsim,
             overlay::Destination::unicast(static_cast<overlay::NodeId>((i + n / 2) % n),
                                           200),
             spec, t0 + window}));
    fsim.schedule_at(t0 + sim::Duration::microseconds(173 * (i + 1)),
                     [f = flows.back().get()]() { f->tick(); });
  }

  // Churn through the control-sim path (round barriers), so workers=1 and
  // workers=K replay the identical event sequence. Node 0 is spared: a flow
  // source that restarts would stop ticking (its endpoint state resets).
  overlay::ChurnScript churn{*fx.overlay};
  overlay::ChurnScript::RandomChurnConfig ccfg;
  ccfg.from = t0 + 500_ms;
  ccfg.until = t0 + window;
  ccfg.events_per_sec = 1.0;
  ccfg.down_for = 3_s;
  ccfg.seed = seed;
  ccfg.spare = 0;
  const std::size_t cycles = churn.random_churn(ccfg);

  fx.kernel->run_until(t0 + window + 5_s);

  std::uint64_t folded = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) mix(folded, hash[i]);
  std::uint64_t evictions = 0;
  for (std::size_t i = 0; i < n; ++i) {
    evictions += fx.overlay->node(static_cast<overlay::NodeId>(i)).stats().origin_evictions;
  }
  exp::Metrics m;
  m.scalar("digest32", static_cast<double>((folded >> 32) ^ (folded & 0xFFFFFFFFu)));
  m.scalar("cycles", static_cast<double>(cycles));
  m.scalar("origin_evictions", static_cast<double>(evictions));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "churn", 1, 1);
  const Duration detect_run = opts.quick ? 12_s : 20_s;
  const Duration stab_window = opts.quick ? 6_s : 15_s;
  const Duration shard_window = opts.quick ? 4_s : 8_s;

  bench::heading("CHURN", "Membership maintenance under node churn (join/leave/crash-recover)");
  bench::note("Overlay: C_10(1,2) circulant (vertex connectivity 4); hellos 100 ms,");
  bench::note("3 misses to declare a channel dead; dead-origin timeout 2.5 s.");

  std::vector<double> rates{0.5, 1.0, 2.0};
  overlay::ChurnModel model = overlay::ChurnModel::kPoisson;
  if (opts.churn_rate > 0.0) {
    rates = {opts.churn_rate};
    model = *overlay::churn_model_from_string(opts.churn_model);
  }

  exp::Experiment ex{opts};
  {
    exp::Json params = exp::Json::object();
    params["scenario"] = "detect_repair";
    ex.add_cell("detect+repair", std::move(params),
                [detect_run](std::uint64_t seed) { return run_detect(detect_run, seed); });
  }
  for (const double rate : rates) {
    exp::Json params = exp::Json::object();
    params["scenario"] = "stabilization";
    params["rate"] = rate;
    params["model"] = overlay::to_string(model);
    char label[48];
    std::snprintf(label, sizeof label, "stabilize @%.2g/s", rate);
    ex.add_cell(label, std::move(params), [rate, model, stab_window](std::uint64_t seed) {
      return run_stab(rate, model, stab_window, seed);
    });
  }
  {
    exp::Json params = exp::Json::object();
    params["scenario"] = "partition_heal";
    ex.add_cell("partition+heal", std::move(params),
                [](std::uint64_t seed) { return run_partition(seed); });
  }
  const unsigned shard_workers = std::max(2u, opts.resolved_shards());
  for (const unsigned w : {1u, shard_workers}) {
    exp::Json params = exp::Json::object();
    params["scenario"] = "shard_digest";
    params["workers"] = static_cast<double>(w);
    char label[48];
    std::snprintf(label, sizeof label, "shard digest w%u", w);
    ex.add_cell(label, std::move(params), [w, shard_window](std::uint64_t seed) {
      return run_sharded_churn(w, shard_window, seed);
    });
  }
  const exp::Report report = ex.run();

  {
    const auto& c = report.cell("detect+repair");
    bench::Table t{{"scenario", "max gap ms", "bound ms", "within", "delivered"}, 14};
    t.print_header();
    t.cell(std::string{"detect+repair"});
    t.cell(c.scalar_mean("max_gap_ms"), "%.0f");
    t.cell(c.scalar_mean("bound_ms"), "%.0f");
    t.cell(std::string{c.scalar_mean("within_bound") >= 1.0 ? "yes" : "NO"});
    t.cell(static_cast<std::uint64_t>(c.scalar_mean("delivered")));
    t.end_row();
  }
  bench::note("");
  {
    bench::Table t{{"churn rate", "stabilize ms", "cycles", "evictions", "restarts seen"},
                   14};
    t.print_header();
    for (const double rate : rates) {
      char label[48];
      std::snprintf(label, sizeof label, "stabilize @%.2g/s", rate);
      const auto& c = report.cell(label);
      t.cell(std::string{label + 10});
      t.cell(c.scalar_mean("stabilization_ms"), "%.0f");
      t.cell(static_cast<std::uint64_t>(c.scalar_mean("cycles")));
      t.cell(static_cast<std::uint64_t>(c.scalar_mean("origin_evictions")));
      t.cell(static_cast<std::uint64_t>(c.scalar_mean("peer_restarts_seen")));
      t.end_row();
    }
  }
  bench::note("");
  {
    const auto& c = report.cell("partition+heal");
    bench::Table t{{"scenario", "reform ms", "intra ratio", "cross delivered"}, 16};
    t.print_header();
    t.cell(std::string{"partition+heal"});
    t.cell(c.scalar_mean("reform_ms"), "%.0f");
    t.cell(c.scalar_mean("intra_delivery_ratio"), "%.3f");
    t.cell(static_cast<std::uint64_t>(c.scalar_mean("cross_delivered")));
    t.end_row();
  }
  bench::note("");
  {
    char l1[48], lk[48];
    std::snprintf(l1, sizeof l1, "shard digest w%u", 1u);
    std::snprintf(lk, sizeof lk, "shard digest w%u", shard_workers);
    const double d1 = report.cell(l1).scalar_mean("digest32");
    const double dk = report.cell(lk).scalar_mean("digest32");
    bench::Table t{{"workers", "digest32", "cycles", "evictions"}, 14};
    t.print_header();
    for (const char* l : {l1, lk}) {
      const auto& c = report.cell(l);
      t.cell(std::string{l + 13});
      t.cell(static_cast<std::uint64_t>(c.scalar_mean("digest32")));
      t.cell(static_cast<std::uint64_t>(c.scalar_mean("cycles")));
      t.cell(static_cast<std::uint64_t>(c.scalar_mean("origin_evictions")));
      t.end_row();
    }
    bench::note("shard digests equal across worker counts: %s",
                d1 == dk ? "yes" : "NO — DETERMINISM VIOLATION");
  }

  bench::note("");
  bench::note("Expected shape: detection+repair inside the hello bound; stabilization");
  bench::note("grows with churn rate but stays seconds-scale (state refresh re-floods);");
  bench::note("intra-side delivery rides through the partition; shard digests match.");

  return bench::write_report(report, opts) ? 0 : 1;
}
