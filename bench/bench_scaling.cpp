// SCALE — §II-A: "a few tens of well situated overlay nodes... The limited
// number of nodes allows each overlay node to maintain global state
// concerning the condition of all other overlay nodes and the connections
// between them, allowing fast reactions to changes in the network."
//
// Sweeps the overlay size (circulant topologies, 2n links; the 64-bit source
// routing mask caps deployments at 64 links, i.e. n = 32 here) and measures
// what the global-state design costs and buys at each size:
//   * control-plane traffic per node (hellos + state floods),
//   * full route-recompute CPU time (the work done on every LSA change),
//   * end-to-end rerouting time after a fiber cut (what the state buys).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"
#include "overlay/sharded.hpp"

namespace {

using namespace son;
using namespace son::sim::literals;
using sim::Duration;
using sim::TimePoint;

double route_recompute_us(std::size_t n, int iters) {
  overlay::TopologyDb db{overlay::circulant_topology(n)};
  overlay::GroupDb groups{n};
  overlay::Router router{0, db, groups};
  // Warm up, then time LSA-apply + full next-hop recompute.
  std::uint64_t seq = 1;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    overlay::LinkStateAd ad;
    ad.origin = 0;
    ad.seq = seq++;
    ad.links = {{0, true, 10.0 + static_cast<double>(i % 3), 0.0}};
    db.apply(ad);
    volatile auto nh = router.next_hop(static_cast<overlay::NodeId>(n / 2));
    (void)nh;
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
}

exp::Metrics run(std::size_t n, Duration traffic_time, int recompute_iters,
                 std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(n), gopts,
                                         sim::Rng{seed});
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(1);
  const auto dst_id = static_cast<overlay::NodeId>(n / 2);
  auto& dst = fx.overlay->node(dst_id).connect(2);
  std::vector<double> arrivals;
  client::MeasuringSink sink{dst};
  sink.on_message([&](const overlay::Message&, Duration) {
    arrivals.push_back(sim.now().to_seconds_f());
  });
  client::FlowEngine sender{sim, src, {.payload_bytes = 200, .rate_pps = 500},
                            overlay::Destination::unicast(dst_id, 2), sim.now(),
                            sim.now() + traffic_time};

  std::uint64_t frames0 = 0;
  for (overlay::NodeId i = 0; i < n; ++i) frames0 += fx.overlay->node(i).stats().frames_sent;

  sim.schedule(5_s, [&]() {
    // Cut the fiber under the first hop of the route in use.
    const overlay::LinkBit nh = fx.overlay->node(0).router().next_hop(dst_id);
    fx.internet->set_link_up(fx.fiber[nh], false);
  });
  const Duration measured = traffic_time + 2_s;
  sim.run_for(measured);

  std::uint64_t frames1 = 0;
  for (overlay::NodeId i = 0; i < n; ++i) frames1 += fx.overlay->node(i).stats().frames_sent;

  double max_gap = 0.0, prev = 3.0;
  for (const double a : arrivals) {
    max_gap = std::max(max_gap, a - prev);
    prev = a;
  }

  exp::Metrics m;
  m.scalar("ctl_frames_per_node_s",
           static_cast<double>(frames1 - frames0) / static_cast<double>(n) /
                   measured.to_seconds_f() -
               500.0 / static_cast<double>(n));  // subtract the data flow's share
  m.scalar("reroute_gap_ms", max_gap * 1000.0);
  // CPU time is machine-dependent: report it under run.timings, not results.
  m.timing("recompute_us", route_recompute_us(n, recompute_iters));
  return m;
}

// ---- Sharded-kernel scaling -------------------------------------------------
//
// The 12-site continental map, one partition per city, driven hard: the full
// overlay protocol plus 24 CBR flows criss-crossing the map. Identical work
// at every worker count — the deterministic digest column proves it — so the
// wall-clock column isolates what the conservative-parallel kernel buys.
exp::Metrics run_sharded(unsigned workers, Duration dur, std::uint64_t seed) {
  overlay::ShardedMapOptions sopts;
  sopts.workers = workers;
  auto fx = overlay::build_sharded_map(topo::continental_us(), sopts, seed);
  const std::size_t n = fx.underlay.hosts.size();

  std::vector<std::uint64_t> hash(n, 1469598103934665603ULL);
  const auto mix = [](std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    fx.internet->bind(fx.underlay.hosts[i], 7, [&hash, &fx, mix, i](const net::Datagram& d) {
      mix(hash[i], d.id);
      mix(hash[i],
          static_cast<std::uint64_t>(fx.node_sim(static_cast<overlay::NodeId>(i)).now().ns()));
    });
  }

  fx.overlay->settle(1_s);
  const TimePoint t0 = fx.kernel->now();

  struct Flow {
    net::Internet& net;
    sim::Simulator& sim;
    net::HostId src, dst;
    TimePoint stop;
    void tick() {
      if (sim.now() >= stop) return;
      net::Datagram d;
      d.src = src;
      d.dst = dst;
      d.dst_port = 7;
      d.size_bytes = 1400;
      net.send(std::move(d));
      sim.schedule(1_ms, [this]() { tick(); });
    }
  };
  std::vector<std::unique_ptr<Flow>> flows;
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t hop : {std::size_t{3}, std::size_t{6}}) {
      auto& sim = fx.node_sim(static_cast<overlay::NodeId>(i));
      flows.push_back(std::make_unique<Flow>(Flow{*fx.internet, sim, fx.underlay.hosts[i],
                                                  fx.underlay.hosts[(i + hop) % n], t0 + dur}));
      sim.schedule_at(t0 + Duration::microseconds(41 * (flows.size())),
                      [f = flows.back().get()]() { f->tick(); });
    }
  }

  const std::uint64_t fired0 = fx.kernel->events_fired();
  const auto w0 = std::chrono::steady_clock::now();
  fx.kernel->run_until(t0 + dur + 500_ms);
  const auto w1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(w1 - w0).count();

  std::uint64_t digest = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) mix(digest, hash[i]);

  exp::Metrics m;
  // Deterministic columns: identical at every worker count (the runtime leg
  // of the kernel's 1 == K contract, visible right in the report).
  m.scalar("delivered", static_cast<double>(fx.internet->counters().delivered));
  m.scalar("digest32", static_cast<double>((digest >> 32) ^ (digest & 0xFFFFFFFFULL)));
  // Machine-dependent columns live under timings.
  m.timing("wall_s", wall_s);
  m.timing("events_per_wall_s",
           static_cast<double>(fx.kernel->events_fired() - fired0) / wall_s);
  m.timing("flows_per_wall_s",
           static_cast<double>(fx.internet->counters().delivered) / wall_s);
  return m;
}

// ---- FLOWS: flyweight flow engine at 10^5..10^6 concurrent flows ------------
//
// One client::FlowEngine per continental site carries the whole user
// population of that edge in one flow table — no per-flow objects, no
// per-flow timers. Three service classes share each engine (timely realtime
// with a 150 ms deadline, hop-by-hop reliable, best-effort bulk), and the
// report prices the aggregate model (flows per wall-second, bytes per flow)
// next to per-class delivery percentiles. The digest column makes the cell
// reproducible: identical at every worker count and across reruns.
exp::Metrics run_flows(std::size_t total_flows, const client::LoadCurve& curve,
                       unsigned workers, Duration dur, std::uint64_t seed) {
  overlay::ShardedMapOptions sopts;
  sopts.workers = workers;
  // 10^6 tagged flow keys must not grow per-flow session maps at the nodes.
  sopts.node.session_flow_accounting = false;
  auto fx = overlay::build_sharded_map(topo::continental_us(), sopts, seed);
  const std::size_t n = fx.underlay.hosts.size();

  client::FlowClass timely;
  timely.name = "timely";
  timely.spec.link_protocol = overlay::LinkProtocol::kRealtimeSimple;
  timely.spec.deadline = 150_ms;
  timely.payload_bytes = 200;
  timely.rate_pps = 0.3;
  timely.weight = 0.25;
  client::FlowClass reliable;
  reliable.name = "reliable";
  reliable.spec.link_protocol = overlay::LinkProtocol::kReliable;
  reliable.payload_bytes = 400;
  reliable.rate_pps = 0.2;
  reliable.weight = 0.25;
  client::FlowClass bulk;
  bulk.name = "bulk";
  bulk.payload_bytes = 150;
  bulk.rate_pps = 0.3;
  bulk.poisson = true;
  bulk.weight = 0.5;

  // Partition-local delivery stats: every handler runs on the worker that
  // owns its site, so the slots are never shared.
  const auto mix = [](std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  std::vector<std::array<sim::SampleSet, 3>> lat(n);
  std::vector<std::uint64_t> hash(n, 1469598103934665603ULL);
  for (std::size_t i = 0; i < n; ++i) {
    auto& sink = fx.overlay->node(static_cast<overlay::NodeId>(i)).connect(9);
    sink.set_handler([&lat, &hash, mix, i](const overlay::Message& m, Duration l) {
      const std::size_t c =
          m.hdr.link_protocol == overlay::LinkProtocol::kRealtimeSimple ? 0
          : m.hdr.link_protocol == overlay::LinkProtocol::kReliable     ? 1
                                                                        : 2;
      lat[i][c].add(l.to_millis_f());
      mix(hash[i], m.hdr.flow_key);
      mix(hash[i], m.hdr.flow_seq);
    });
  }

  fx.overlay->settle(3_s);
  const TimePoint t0 = fx.kernel->now();

  std::vector<std::unique_ptr<client::FlowEngine>> engines;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<overlay::NodeId>(i);
    client::FlowEngineOptions eo;
    eo.classes = {timely, reliable, bulk};
    eo.dests = {overlay::Destination::unicast(static_cast<overlay::NodeId>((i + 3) % n), 9),
                overlay::Destination::unicast(static_cast<overlay::NodeId>((i + 6) % n), 9)};
    eo.flows = total_flows / n + (i == 0 ? total_flows % n : 0);
    eo.curve = curve;
    // A constant curve holds the full population statically for the whole
    // window — the "sustain 10^6 concurrent flows" configuration. The shaped
    // curves need churn for the batched arrival process to matter.
    if (curve.kind != client::LoadCurve::Kind::kConstant) eo.mean_lifetime = dur / 2;
    eo.start = t0 + Duration::microseconds(113 * (static_cast<std::int64_t>(i) + 1));
    eo.stop = t0 + dur;
    engines.push_back(std::make_unique<client::FlowEngine>(
        fx.node_sim(id), fx.overlay->node(id).connect(3), eo,
        sim::component_stream(seed, static_cast<std::uint32_t>(i),
                              overlay::kStreamFlowEngine, i)));
    engines.back()->start();
  }

  const std::uint64_t fired0 = fx.kernel->events_fired();
  const auto w0 = std::chrono::steady_clock::now();
  fx.kernel->run_until(t0 + dur + 500_ms);
  const auto w1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(w1 - w0).count();

  std::uint64_t activated = 0, sent = 0, blocked = 0, peak = 0;
  std::size_t mem = 0;
  for (const auto& e : engines) {
    activated += e->totals().activated;
    sent += e->totals().sent;
    blocked += e->totals().blocked;
    peak += e->peak_active_flows();
    mem += e->memory_bytes();
  }
  std::uint64_t digest = 1469598103934665603ULL;
  std::uint64_t delivered = 0;
  exp::Metrics m;
  for (std::size_t i = 0; i < n; ++i) {
    mix(digest, hash[i]);
    for (std::size_t c = 0; c < 3; ++c) delivered += lat[i][c].size();
    m.samples("lat_timely_ms").merge(lat[i][0]);
    m.samples("lat_reliable_ms").merge(lat[i][1]);
    m.samples("lat_bulk_ms").merge(lat[i][2]);
  }

  // Deterministic columns.
  m.scalar("flows_peak", static_cast<double>(peak));
  m.scalar("activated", static_cast<double>(activated));
  m.scalar("sent", static_cast<double>(sent));
  m.scalar("blocked", static_cast<double>(blocked));
  m.scalar("delivered", static_cast<double>(delivered));
  m.scalar("delivery_ratio",
           sent == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(sent));
  m.scalar("mem_per_flow_bytes",
           peak == 0 ? 0.0 : static_cast<double>(mem) / static_cast<double>(peak));
  m.scalar("digest32", static_cast<double>((digest >> 32) ^ (digest & 0xFFFFFFFFULL)));
  // Machine-dependent columns.
  m.timing("wall_s", wall_s);
  m.timing("flows_per_wall_s", static_cast<double>(activated) / wall_s);
  m.timing("pkts_per_wall_s", static_cast<double>(sent) / wall_s);
  m.timing("events_per_wall_s",
           static_cast<double>(fx.kernel->events_fired() - fired0) / wall_s);
  return m;
}

// ---- Open scenarios on the flow engine --------------------------------------
//
// Overload at the access node: a static population at node 0 offers L times
// the bottleneck fiber's capacity toward node 4. Past L = 1 the delivery
// ratio falls and tail latency explodes — classic congestion collapse, here
// produced by 500 flyweight flows sharing one engine.
exp::Metrics run_overload(double load_factor, Duration dur, std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  gopts.bandwidth_bps = 20e6;  // slim fibers: overload is reachable cheaply
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(8), gopts,
                                         sim::Rng{seed});
  fx.overlay->settle(3_s);

  constexpr std::size_t kFlows = 500;
  constexpr std::size_t kPayload = 1200;
  const double wire_bits = 8.0 * (kPayload + overlay::kMessageHeaderBytes +
                                  overlay::kLinkFrameBytes);
  const double capacity_pps = gopts.bandwidth_bps / wire_bits;

  auto& dst = fx.overlay->node(4).connect(2);
  client::MeasuringSink sink{dst};

  client::FlowClass c;
  c.name = "cbr";
  c.payload_bytes = kPayload;
  c.rate_pps = load_factor * capacity_pps / static_cast<double>(kFlows);
  client::FlowEngineOptions eo;
  eo.classes = {c};
  eo.dests = {overlay::Destination::unicast(4, 2)};
  eo.flows = kFlows;
  eo.start = sim.now();
  eo.stop = sim.now() + dur;
  client::FlowEngine engine{sim, fx.overlay->node(0).connect(3), eo, sim::Rng{seed ^ 0xA11}};
  engine.start();
  sim.run_for(dur + 1_s);

  exp::Metrics m;
  m.scalar("offered_pps", load_factor * capacity_pps);
  m.scalar("sent", static_cast<double>(engine.totals().sent));
  m.scalar("blocked", static_cast<double>(engine.totals().blocked));
  m.scalar("delivery_ratio", sink.delivery_ratio(engine.totals().sent));
  m.scalar("p50_ms", sink.latencies_ms().quantile(0.5));
  m.scalar("p99_ms", sink.latencies_ms().p99());
  return m;
}

// Flash crowd on the multicast tree: nodes 1..7 join group 40; the engine at
// node 0 runs a churning population shaped by the flash-crowd curve — the
// arrival rate jumps 8x for half a second mid-run, and the population (and
// the load on every branch of the tree) spikes with it.
exp::Metrics run_flash_crowd(Duration dur, std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(8), gopts,
                                         sim::Rng{seed});
  constexpr overlay::GroupId kGroup = 40;
  constexpr std::size_t kMembers = 7;
  std::vector<std::unique_ptr<client::MeasuringSink>> sinks;
  for (overlay::NodeId i = 1; i <= kMembers; ++i) {
    auto& ep = fx.overlay->node(i).connect(5);
    ep.join(kGroup);
    sinks.push_back(std::make_unique<client::MeasuringSink>(ep));
  }
  fx.overlay->settle(3_s);  // memberships flood with the link state

  client::FlowClass c;
  c.name = "event";
  c.payload_bytes = 300;
  c.rate_pps = 4.0;
  c.poisson = true;
  client::LoadCurve curve;
  curve.kind = client::LoadCurve::Kind::kFlashCrowd;
  curve.spike_after = 1_s;
  curve.spike_width = 500_ms;
  curve.spike_factor = 8.0;
  client::FlowEngineOptions eo;
  eo.classes = {c};
  eo.dests = {overlay::Destination::multicast(kGroup)};
  eo.flows = 150;  // steady population; the spike multiplies arrivals by 8
  eo.curve = curve;
  eo.mean_lifetime = 400_ms;
  eo.start = sim.now();
  eo.stop = sim.now() + dur;
  client::FlowEngine engine{sim, fx.overlay->node(0).connect(3), eo, sim::Rng{seed ^ 0xF1A}};
  engine.start();
  sim.run_for(dur + 1_s);

  std::uint64_t received = 0;
  sim::SampleSet lat;
  for (const auto& s : sinks) {
    received += s->received();
    lat.merge(s->latencies_ms());
  }
  const double expected =
      static_cast<double>(engine.totals().sent) * static_cast<double>(kMembers);

  exp::Metrics m;
  m.scalar("steady_flows", static_cast<double>(eo.flows));
  m.scalar("peak_flows", static_cast<double>(engine.peak_active_flows()));
  m.scalar("sent", static_cast<double>(engine.totals().sent));
  m.scalar("delivery_ratio", expected == 0.0 ? 0.0 : static_cast<double>(received) / expected);
  m.scalar("p99_ms", lat.p99());
  return m;
}

// Priority across service classes: a small timely class (IT-priority 200) and
// a bulk class (IT-priority 1) share the 0 -> 4 path, with the IT egress
// pacer (the resource the scheduler divides) set below the bulk offer so the
// priority queue is the bottleneck. Run the timely class alone, then
// contended: the priority queue should hold its tail latency near the
// uncontended baseline while bulk absorbs the loss.
exp::Metrics run_priority_mix(bool contended, Duration dur, std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  gopts.node.link_protocols.it_egress_msgs_per_sec = 1500;  // the contended resource
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(8), gopts,
                                         sim::Rng{seed});
  fx.overlay->settle(3_s);

  auto& hi_dst = fx.overlay->node(4).connect(2);
  client::MeasuringSink hi_sink{hi_dst};
  auto& lo_dst = fx.overlay->node(4).connect(3);
  client::MeasuringSink lo_sink{lo_dst};

  client::FlowClass hi;
  hi.name = "timely";
  hi.spec.link_protocol = overlay::LinkProtocol::kITPriority;
  hi.spec.priority = 200;
  hi.payload_bytes = 300;
  hi.rate_pps = 10.0;
  client::FlowEngineOptions hi_eo;
  hi_eo.classes = {hi};
  hi_eo.dests = {overlay::Destination::unicast(4, 2)};
  hi_eo.flows = 10;
  hi_eo.start = sim.now();
  hi_eo.stop = sim.now() + dur;
  client::FlowEngine hi_engine{sim, fx.overlay->node(0).connect(6), hi_eo,
                               sim::Rng{seed ^ 0xB0B}};
  hi_engine.start();

  std::unique_ptr<client::FlowEngine> lo_engine;
  if (contended) {
    client::FlowClass lo;
    lo.name = "bulk";
    lo.spec.link_protocol = overlay::LinkProtocol::kITPriority;
    lo.spec.priority = 1;
    lo.payload_bytes = 1200;
    lo.rate_pps = 20.0;
    client::FlowEngineOptions lo_eo;
    lo_eo.classes = {lo};
    lo_eo.dests = {overlay::Destination::unicast(4, 3)};
    lo_eo.flows = 100;  // ~2000 msg/s offered against the 1500 msg/s IT pacer
    lo_eo.start = sim.now();
    lo_eo.stop = sim.now() + dur;
    lo_engine = std::make_unique<client::FlowEngine>(sim, fx.overlay->node(0).connect(7),
                                                     lo_eo, sim::Rng{seed ^ 0xB31C});
    lo_engine->start();
  }
  sim.run_for(dur + 1_s);

  exp::Metrics m;
  m.scalar("hi_sent", static_cast<double>(hi_engine.totals().sent));
  m.scalar("hi_delivery_ratio", hi_sink.delivery_ratio(hi_engine.totals().sent));
  m.scalar("hi_p99_ms", hi_sink.latencies_ms().p99());
  m.scalar("lo_sent", lo_engine ? static_cast<double>(lo_engine->totals().sent) : 0.0);
  m.scalar("lo_delivery_ratio",
           lo_engine ? lo_sink.delivery_ratio(lo_engine->totals().sent) : 0.0);
  m.scalar("lo_p99_ms", lo_engine ? lo_sink.latencies_ms().p99() : 0.0);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "scaling", 1, 900);
  const Duration traffic_time = opts.quick ? 8_s : 15_s;
  const int recompute_iters = opts.quick ? 500 : 2000;

  bench::heading("SCALE", "Global-state costs and benefits vs overlay size (§II-A)");
  bench::note("Circulant overlays C_n(1,2); 64-bit link masks cap n at 32 (64 links) —");
  bench::note("matching the paper's 'a few tens of well situated overlay nodes'.");
  bench::note("Flow at 500 pkt/s, node 0 -> n/2; in-use fiber cut at t=5 s.");

  const std::vector<std::size_t> sizes{8, 16, 24, 32};
  exp::Experiment ex{opts};
  for (const std::size_t n : sizes) {
    exp::Json params = exp::Json::object();
    params["nodes"] = static_cast<std::uint64_t>(n);
    params["links"] = static_cast<std::uint64_t>(2 * n);
    ex.add_cell("n=" + std::to_string(n), std::move(params),
                [n, traffic_time, recompute_iters](std::uint64_t seed) {
                  return run(n, traffic_time, recompute_iters, seed + n);  // legacy 900+n
                });
  }

  // Sharded-kernel cells: worker counts 1, 2, 4, ... up to --shards (resolved;
  // default 1 keeps the default run single-threaded). Same seed for every
  // cell — the digest column must be identical across worker counts.
  std::vector<unsigned> shard_counts{1};
  for (unsigned k = 2; k <= opts.resolved_shards(); k *= 2) shard_counts.push_back(k);
  const Duration shard_dur = opts.quick ? 2_s : 8_s;
  for (const unsigned k : shard_counts) {
    exp::Json params = exp::Json::object();
    params["workers"] = static_cast<std::uint64_t>(k);
    params["partitions"] = static_cast<std::uint64_t>(12);
    ex.add_cell("shards=" + std::to_string(k), std::move(params),
                [k, shard_dur](std::uint64_t seed) { return run_sharded(k, shard_dur, seed); });
  }

  // Flow-engine cells: 10^5 (and, in full runs, 10^6) concurrent flows on the
  // continental map. --flows overrides the count, --load-curve shapes the
  // arrival process, --shards picks the kernel's worker count. One rep: the
  // cell is deterministic (digest32) and the 10^6 trial is the expensive one.
  std::vector<std::size_t> flow_counts;
  if (opts.flows > 0) {
    flow_counts.push_back(static_cast<std::size_t>(opts.flows));
  } else {
    flow_counts.push_back(100'000);
    if (!opts.quick) flow_counts.push_back(1'000'000);
  }
  const client::LoadCurve flow_curve =
      *client::LoadCurve::from_name(opts.load_curve);  // parse() validated the name
  const Duration flow_dur = opts.quick ? 2_s : 3_s;
  const unsigned flow_workers = opts.resolved_shards();
  for (const std::size_t f : flow_counts) {
    exp::Json params = exp::Json::object();
    params["flows"] = static_cast<std::uint64_t>(f);
    params["curve"] = opts.load_curve;
    params["workers"] = static_cast<std::uint64_t>(flow_workers);
    ex.add_cell("flows=" + std::to_string(f), std::move(params),
                [f, flow_curve, flow_workers, flow_dur](std::uint64_t seed) {
                  return run_flows(f, flow_curve, flow_workers, flow_dur, seed);
                },
                1);
  }

  // Open scenarios on the flow engine.
  const Duration scen_dur = opts.quick ? 2_s : 4_s;
  const std::vector<double> load_factors{0.5, 1.5, 3.0};
  for (const double lf : load_factors) {
    char label[32];
    std::snprintf(label, sizeof label, "overload=%.1f", lf);
    exp::Json params = exp::Json::object();
    params["load_factor"] = lf;
    ex.add_cell(label, std::move(params),
                [lf, scen_dur](std::uint64_t seed) { return run_overload(lf, scen_dur, seed); });
  }
  ex.add_cell("flash_crowd", exp::Json::object(),
              [scen_dur](std::uint64_t seed) { return run_flash_crowd(scen_dur, seed); });
  for (const bool contended : {false, true}) {
    exp::Json params = exp::Json::object();
    params["contended"] = contended;
    ex.add_cell(contended ? "prio=contended" : "prio=alone", std::move(params),
                [contended, scen_dur](std::uint64_t seed) {
                  return run_priority_mix(contended, scen_dur, seed);
                });
  }

  const exp::Report report = ex.run();

  bench::Table t{{"nodes", "links", "ctl frames/s/node", "recompute us", "reroute ms"}, 18};
  t.print_header();
  for (const std::size_t n : sizes) {
    const auto& c = report.cell("n=" + std::to_string(n));
    t.cell(static_cast<std::uint64_t>(n));
    t.cell(static_cast<std::uint64_t>(2 * n));
    t.cell(c.scalar_mean("ctl_frames_per_node_s"), "%.0f");
    t.cell(c.timing_mean("recompute_us"), "%.2f");
    t.cell(c.scalar_mean("reroute_gap_ms"), "%.0f");
    t.end_row();
  }
  bench::note("");
  bench::note("Sharded kernel on the 12-site continental map (one partition per city,");
  bench::note("overlay protocol + 24 CBR flows). digest32 must match across rows — the");
  bench::note("worker count is a pure wall-clock knob. Speedup is wall(1) / wall(K).");
  bench::Table st{{"workers", "wall s", "events/s", "flows/s", "digest32", "speedup"}, 14};
  st.print_header();
  const double wall1 = report.cell("shards=1").timing_mean("wall_s");
  for (const unsigned k : shard_counts) {
    const auto& c = report.cell("shards=" + std::to_string(k));
    st.cell(static_cast<std::uint64_t>(k));
    st.cell(c.timing_mean("wall_s"), "%.3f");
    st.cell(c.timing_mean("events_per_wall_s"), "%.0f");
    st.cell(c.timing_mean("flows_per_wall_s"), "%.0f");
    st.cell(static_cast<std::uint64_t>(c.scalar_mean("digest32")));
    st.cell(wall1 / c.timing_mean("wall_s"), "%.2fx");
    st.end_row();
  }
  bench::note("");
  bench::note("Flyweight flow engine, one per continental site: the whole population in");
  bench::note("one flow table, three service classes (timely/reliable/bulk), batched");
  bench::note("arrivals per --load-curve. mem B/flow is the engine's real table");
  bench::note("footprint at peak population; flows/s and pkts/s are wall-clock rates.");
  bench::Table ft{{"flows", "curve", "wall s", "flows/s", "pkts/s", "mem B/flow", "dlvr",
                   "timely p99 ms", "digest32"},
                  14};
  ft.print_header();
  for (const std::size_t f : flow_counts) {
    const auto& c = report.cell("flows=" + std::to_string(f));
    ft.cell(static_cast<std::uint64_t>(c.scalar_mean("flows_peak")));
    ft.cell(opts.load_curve);
    ft.cell(c.timing_mean("wall_s"), "%.3f");
    ft.cell(c.timing_mean("flows_per_wall_s"), "%.0f");
    ft.cell(c.timing_mean("pkts_per_wall_s"), "%.0f");
    ft.cell(c.scalar_mean("mem_per_flow_bytes"), "%.1f");
    ft.cell(c.scalar_mean("delivery_ratio"), "%.4f");
    ft.cell(c.samples("lat_timely_ms").p99(), "%.2f");
    ft.cell(static_cast<std::uint64_t>(c.scalar_mean("digest32")));
    ft.end_row();
  }

  bench::note("");
  bench::note("Overload at the access node: 500 flows at node 0 offer L x the bottleneck");
  bench::note("fiber's capacity toward node 4 (20 Mb/s fibers). Past L = 1 delivery");
  bench::note("collapses and the tail explodes — congestion collapse in one engine.");
  bench::Table ot{{"offered xC", "offered pps", "sent", "delivery", "p50 ms", "p99 ms"}, 14};
  ot.print_header();
  for (const double lf : load_factors) {
    char label[32];
    std::snprintf(label, sizeof label, "overload=%.1f", lf);
    const auto& c = report.cell(label);
    ot.cell(lf, "%.1f");
    ot.cell(c.scalar_mean("offered_pps"), "%.0f");
    ot.cell(static_cast<std::uint64_t>(c.scalar_mean("sent")));
    ot.cell(c.scalar_mean("delivery_ratio"), "%.4f");
    ot.cell(c.scalar_mean("p50_ms"), "%.2f");
    ot.cell(c.scalar_mean("p99_ms"), "%.2f");
    ot.end_row();
  }

  bench::note("");
  bench::note("Flash crowd on the multicast tree (arrivals x8 for 500 ms mid-run) and");
  bench::note("IT-priority under contention (timely prio 200 vs bulk prio 1 overloading");
  bench::note("the paced IT egress; the timely tail should hold near its uncontended run).");
  {
    const auto& fc = report.cell("flash_crowd");
    bench::Table fct{{"scenario", "steady flows", "peak flows", "sent", "delivery", "p99 ms"},
                     14};
    fct.print_header();
    fct.cell(std::string{"flash_crowd"});
    fct.cell(static_cast<std::uint64_t>(fc.scalar_mean("steady_flows")));
    fct.cell(static_cast<std::uint64_t>(fc.scalar_mean("peak_flows")));
    fct.cell(static_cast<std::uint64_t>(fc.scalar_mean("sent")));
    fct.cell(fc.scalar_mean("delivery_ratio"), "%.4f");
    fct.cell(fc.scalar_mean("p99_ms"), "%.2f");
    fct.end_row();
  }
  {
    bench::Table pt{{"scenario", "timely dlvr", "timely p99 ms", "bulk dlvr", "bulk p99 ms"},
                    15};
    pt.print_header();
    for (const bool contended : {false, true}) {
      const auto& c = report.cell(contended ? "prio=contended" : "prio=alone");
      pt.cell(std::string{contended ? "prio=contended" : "prio=alone"});
      pt.cell(c.scalar_mean("hi_delivery_ratio"), "%.4f");
      pt.cell(c.scalar_mean("hi_p99_ms"), "%.2f");
      pt.cell(c.scalar_mean("lo_delivery_ratio"), "%.4f");
      pt.cell(c.scalar_mean("lo_p99_ms"), "%.2f");
      pt.end_row();
    }
  }

  bench::note("");
  bench::note("Expected shape: at 'a few tens of nodes' scale, per-node control traffic");
  bench::note("grows only with node degree + flood fan-out, full route recomputation");
  bench::note("stays in microseconds, and sub-second rerouting holds at every size —");
  bench::note("the global-state design the paper argues is practical at this scale.");

  return bench::write_report(report, opts) ? 0 : 1;
}
