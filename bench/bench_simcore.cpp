// SIMCORE — simulator-core throughput: the events/sec ceiling under every
// quantitative claim in the reproduction. Every figure regenerates by driving
// packets through the son::sim event loop and the son::net underlay, so this
// bench records the raw cost of the three hot paths as the repo's perf
// baseline (BENCH_simcore.json, archived by CI):
//   * churn    — schedule/fire of self-rescheduling timers (pure queue cost),
//   * cancel   — RTO-style timer workloads where most timers never fire,
//   * forward  — end-to-end datagram forwarding across a 4-ISP backbone
//                (route lookup, per-hop events, payload hand-off).
// Wall-clock rates land under run.timings (machine-dependent); event and
// delivery counters are deterministic scalars checked across --jobs values.
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/internet.hpp"
#include "obs/recorder.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "topo/backbones.hpp"
#include "topo/geo.hpp"

namespace {

using namespace son;
using namespace son::sim::literals;
using sim::Duration;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---- Cell 1: schedule/fire churn -------------------------------------------

struct ChurnTimer {
  sim::Simulator& sim;
  sim::Rng rng;
  std::uint64_t* fired;
  std::uint64_t budget;

  void arm() {
    if (*fired >= budget) return;
    sim.schedule(Duration::microseconds(1 + rng.next_u32() % 997), [this]() {
      ++*fired;
      arm();
    });
  }
};

exp::Metrics churn(std::uint64_t budget, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng{seed};
  constexpr int kTimers = 256;
  std::uint64_t fired = 0;

  std::vector<std::unique_ptr<ChurnTimer>> timers;
  timers.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<ChurnTimer>(
        ChurnTimer{sim, rng.fork(static_cast<std::uint64_t>(i)), &fired, budget}));
    timers.back()->arm();
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double wall = seconds_since(t0);

  exp::Metrics m;
  m.scalar("events", static_cast<double>(fired));
  m.timing("events_per_sec", static_cast<double>(fired) / wall);
  return m;
}

// ---- Cell 2: cancel-heavy timer workload -----------------------------------

// Each flow behaves like a reliable link's retransmission machinery: every
// "packet" arms an RTO ~200 ms out, and the "ack" (the next tick) cancels it
// long before it fires, so the queue is dominated by cancelled entries.
struct RtoFlow {
  sim::Simulator& sim;
  sim::Rng rng;
  std::uint64_t* ops;
  std::uint64_t budget;
  sim::EventId rto = sim::kInvalidEventId;

  void tick() {
    sim.cancel(rto);
    if (*ops >= budget) return;
    ++*ops;
    rto = sim.schedule(200_ms, [this]() { rto = sim::kInvalidEventId; });
    sim.schedule(Duration::microseconds(100 + rng.next_u32() % 400), [this]() { tick(); });
  }
};

exp::Metrics cancel_heavy(std::uint64_t budget, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng{seed};
  constexpr int kFlows = 64;
  std::uint64_t ops = 0;

  std::vector<std::unique_ptr<RtoFlow>> flows;
  flows.reserve(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    flows.push_back(std::make_unique<RtoFlow>(
        RtoFlow{sim, rng.fork(0x1000u + static_cast<std::uint64_t>(i)), &ops, budget}));
    flows.back()->tick();
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double wall = seconds_since(t0);

  exp::Metrics m;
  // Each op is one cancel + two schedules.
  m.scalar("timer_ops", static_cast<double>(ops));
  m.timing("timer_ops_per_sec", static_cast<double>(ops) / wall);
  return m;
}

// ---- Cell 3: end-to-end forwarding on a 4-ISP backbone ---------------------

// Four parallel ISP backbones over the continental-US map, peering at three
// cities; each city hosts one machine multihomed to two of the four ISPs.
struct QuadIsp {
  std::vector<net::HostId> hosts;
};

QuadIsp build_quad_isp(net::Internet& net) {
  const auto map = topo::continental_us();
  const std::size_t cities = map.cities.size();
  constexpr int kIsps = 4;

  std::vector<net::IspId> isps;
  std::vector<std::vector<net::RouterId>> routers(kIsps);
  for (int i = 0; i < kIsps; ++i) {
    isps.push_back(net.add_isp("isp-" + std::to_string(i)));
    for (const auto& city : map.cities) {
      routers[static_cast<std::size_t>(i)].push_back(
          net.add_router(isps.back(), city.name + "/" + std::to_string(i)));
    }
  }
  for (int i = 0; i < kIsps; ++i) {
    for (const auto& [u, v] : map.edges) {
      net::LinkConfig cfg;
      cfg.prop_delay = topo::fiber_latency(map.cities[u], map.cities[v]);
      cfg.bandwidth_bps = 10e9;
      net.add_link(routers[static_cast<std::size_t>(i)][u],
                   routers[static_cast<std::size_t>(i)][v], cfg);
    }
  }
  // Peering between every ISP pair at NYC, DFW and SFO.
  for (const std::size_t city : {std::size_t{0}, std::size_t{5}, std::size_t{10}}) {
    for (int a = 0; a < kIsps; ++a) {
      for (int b = a + 1; b < kIsps; ++b) {
        net::LinkConfig cfg;
        cfg.prop_delay = sim::Duration::microseconds(200);
        cfg.bandwidth_bps = 10e9;
        net.add_link(routers[static_cast<std::size_t>(a)][city],
                     routers[static_cast<std::size_t>(b)][city], cfg);
      }
    }
  }

  QuadIsp out;
  net::LinkConfig access;
  access.prop_delay = sim::Duration::microseconds(250);
  access.bandwidth_bps = 1e9;
  for (std::size_t c = 0; c < cities; ++c) {
    const auto h = net.add_host(map.cities[c].name);
    net.attach_host(h, routers[c % kIsps][c], access);
    net.attach_host(h, routers[(c + 1) % kIsps][c], access);
    out.hosts.push_back(h);
  }
  return out;
}

struct CbrSource {
  net::Internet& net;
  net::HostId src;
  net::HostId dst;
  Duration gap;
  sim::TimePoint stop;
  std::vector<std::uint8_t> body;

  void tick() {
    if (net.simulator().now() >= stop) return;
    net::Datagram d;
    d.src = src;
    d.dst = dst;
    d.src_port = 9000;
    d.dst_port = 9000;
    d.size_bytes = 1200;
    d.payload = body;
    const std::uint64_t id = net.send(std::move(d));
    SON_OBS(obs::kSystemNode, obs::Category::kMark, 0, id, src);
    net.simulator().schedule(gap, [this]() { tick(); });
  }
};

exp::Metrics forward_4isp(Duration traffic_time, int pps, std::uint64_t seed,
                          const std::string& record_out) {
  // Optional flight recording (--record). Deterministic scalars must stay
  // identical with or without it — GoldenRun.TracingIsInert pins the same
  // property on the full scenario.
  std::unique_ptr<obs::Recorder> rec;
  std::optional<obs::ScopedRecorder> rec_scope;
  if (!record_out.empty()) {
    rec = std::make_unique<obs::Recorder>(0, std::size_t{1} << 17);
    rec_scope.emplace(*rec);
  }
  sim::Simulator sim;
  if (rec) rec->attach(sim);
  net::Internet net{sim, sim::Rng{seed}};
  const QuadIsp q = build_quad_isp(net);

  std::uint64_t delivered = 0;
  for (const auto h : q.hosts) {
    net.bind(h, [&delivered](const net::Datagram&) { ++delivered; });
  }

  const std::size_t n = q.hosts.size();
  std::vector<std::unique_ptr<CbrSource>> sources;
  for (std::size_t c = 0; c < n; ++c) {
    sources.push_back(std::make_unique<CbrSource>(
        CbrSource{net, q.hosts[c], q.hosts[(c + n / 2) % n],
                  Duration::from_seconds_f(1.0 / pps), sim::TimePoint::zero() + traffic_time,
                  std::vector<std::uint8_t>(256, static_cast<std::uint8_t>(c))}));
    sources.back()->tick();
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double wall = seconds_since(t0);

  const auto& ctr = net.counters();
  exp::Metrics m;
  m.scalar("sent", static_cast<double>(ctr.sent));
  m.scalar("delivered", static_cast<double>(delivered));
  m.scalar("events", static_cast<double>(sim.events_fired()));
  m.timing("pkts_per_sec", static_cast<double>(ctr.sent) / wall);
  m.timing("events_per_sec", static_cast<double>(sim.events_fired()) / wall);
  if (rec != nullptr && !rec->write(record_out)) {
    std::fprintf(stderr, "simcore: failed to write trace to %s\n", record_out.c_str());
  }
  return m;
}

}  // namespace

// ---- Cell 4: sharded-kernel round overhead ---------------------------------
//
// A raw 8-partition ring (no underlay): each partition self-schedules every
// 10 us and pushes a cross-shard event roughly every millisecond, so the
// 1 ms-lookahead rounds stay busy. Measures kernel events/sec — the barrier +
// flush overhead on top of the plain simulator's queue cost — at the --shards
// worker count.
exp::Metrics shard_ring(unsigned workers, Duration dur, std::uint64_t seed) {
  constexpr std::uint32_t kParts = 8;
  sim::ShardedKernel k{kParts, workers};
  std::vector<sim::ShardChannel*> next(kParts);
  for (std::uint32_t p = 0; p < kParts; ++p) {
    next[p] = &k.add_channel(p, (p + 1) % kParts, Duration::milliseconds(1));
  }

  const sim::TimePoint stop = sim::TimePoint::zero() + dur;
  struct Spinner {
    sim::ShardedKernel& k;
    sim::ShardChannel& out;
    sim::Rng rng;
    std::uint32_t p;
    sim::TimePoint stop;
    std::uint64_t ticks = 0;
    void tick() {
      sim::Simulator& sim = k.shard_sim(p);
      if (sim.now() >= stop) return;
      ++ticks;
      if (ticks % 100 == 0) {
        out.push(sim.now() + Duration::milliseconds(1) +
                     Duration::microseconds(static_cast<std::int64_t>(rng.next_u64() % 300)),
                 []() {});
      }
      sim.schedule(Duration::microseconds(10), [this]() { tick(); });
    }
  };
  std::vector<std::unique_ptr<Spinner>> spinners;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    spinners.push_back(std::make_unique<Spinner>(
        Spinner{k, *next[p], sim::component_stream(seed, p, /*component=*/1, 0), p, stop}));
    // son-analyze: allow(cross-shard) "coordinator seeding each partition's own queue before the run"
    k.shard_sim(p).schedule_at(sim::TimePoint::zero(),
                               [s = spinners.back().get()]() { s->tick(); });
  }

  const auto w0 = std::chrono::steady_clock::now();
  k.run_until(stop);
  const double wall = seconds_since(w0);

  std::uint64_t pushes = 0;
  for (std::uint32_t p = 0; p < kParts; ++p) pushes += next[p]->total_pushed();
  exp::Metrics m;
  m.scalar("events", static_cast<double>(k.events_fired()));
  m.scalar("cross_pushes", static_cast<double>(pushes));
  m.scalar("rounds", static_cast<double>(k.rounds()));
  m.timing("events_per_sec", static_cast<double>(k.events_fired()) / wall);
  return m;
}

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "simcore", 3, 7100);
  const std::uint64_t churn_budget = opts.quick ? 300'000 : 3'000'000;
  const std::uint64_t cancel_budget = opts.quick ? 150'000 : 1'500'000;
  const Duration traffic_time = opts.quick ? 4_s : 20_s;
  const int pps = 400;

  bench::heading("SIMCORE", "Simulator-core throughput (events/sec ceiling)");
  bench::note("churn: 256 self-rescheduling timers; cancel: 64 RTO flows where");
  bench::note("~every timer is cancelled before firing; forward: 12 multihomed");
  bench::note("hosts blasting CBR across 4 peered ISP backbones.");

  exp::Experiment ex{opts};
  {
    exp::Json p = exp::Json::object();
    p["timers"] = std::uint64_t{256};
    p["events"] = churn_budget;
    ex.add_cell("churn", std::move(p),
                [churn_budget](std::uint64_t seed) { return churn(churn_budget, seed); });
  }
  {
    exp::Json p = exp::Json::object();
    p["flows"] = std::uint64_t{64};
    p["timer_ops"] = cancel_budget;
    ex.add_cell("cancel", std::move(p), [cancel_budget](std::uint64_t seed) {
      return cancel_heavy(cancel_budget, seed);
    });
  }
  {
    exp::Json p = exp::Json::object();
    p["isps"] = std::uint64_t{4};
    p["hosts"] = std::uint64_t{12};
    p["pps_per_host"] = static_cast<std::uint64_t>(pps);
    p["traffic_s"] = traffic_time.to_seconds_f();
    // Only the first replication records (one trace file, deterministic
    // choice); the rest run exactly the same workload without a recorder.
    ex.add_cell("forward", std::move(p),
                [traffic_time, pps, record = opts.record_out,
                 rec_seed = opts.seed_for(0)](std::uint64_t seed) {
                  return forward_4isp(traffic_time, pps, seed,
                                      seed == rec_seed ? record : std::string{});
                });
  }
  {
    exp::Json p = exp::Json::object();
    p["partitions"] = std::uint64_t{8};
    p["workers"] = static_cast<std::uint64_t>(opts.resolved_shards());
    ex.add_cell("shard_ring", std::move(p),
                [workers = opts.resolved_shards(),
                 dur = opts.quick ? 1_s : 4_s](std::uint64_t seed) {
                  return shard_ring(workers, dur, seed);
                });
  }
  const exp::Report report = ex.run();

  bench::Table t{{"cell", "work/trial", "rate (wall)", "unit"}, 18};
  t.print_header();
  {
    const auto& c = report.cell("churn");
    t.cell(std::string{"churn"});
    t.cell(c.scalar_mean("events"), "%.0f");
    t.cell(c.timing_mean("events_per_sec"), "%.0f");
    t.cell(std::string{"events/s"});
    t.end_row();
  }
  {
    const auto& c = report.cell("cancel");
    t.cell(std::string{"cancel"});
    t.cell(c.scalar_mean("timer_ops"), "%.0f");
    t.cell(c.timing_mean("timer_ops_per_sec"), "%.0f");
    t.cell(std::string{"timer ops/s"});
    t.end_row();
  }
  {
    const auto& c = report.cell("forward");
    t.cell(std::string{"forward"});
    t.cell(c.scalar_mean("sent"), "%.0f");
    t.cell(c.timing_mean("pkts_per_sec"), "%.0f");
    t.cell(std::string{"pkts/s"});
    t.end_row();
  }
  {
    const auto& c = report.cell("shard_ring");
    t.cell(std::string{"shard_ring"});
    t.cell(c.scalar_mean("events"), "%.0f");
    t.cell(c.timing_mean("events_per_sec"), "%.0f");
    t.cell(std::string{"events/s"});
    t.end_row();
  }
  bench::note("");
  bench::note("events/s (forward cell): see run.timings; delivered/sent scalars are");
  bench::note("deterministic and must not change when the core is optimized.");

  return bench::write_report(report, opts) ? 0 : 1;
}
