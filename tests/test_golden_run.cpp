// Golden-run determinism: a seeded multi-ISP scenario with loss, failures
// and multihomed hosts must reproduce bit-identical Internet counters and
// delivery timestamps across core changes. The expected values below were
// recorded from the pre-pool simulator core (std::function event queue,
// std::any payloads, per-send route copies); the pooled core must match them
// exactly — that is the (time, seq) determinism contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "net/internet.hpp"
#include "obs/counters.hpp"
#include "obs/recorder.hpp"
#include "overlay/network.hpp"
#include "overlay/realtime.hpp"
#include "overlay/reliable_link.hpp"
#include "overlay/sharded.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "topo/backbones.hpp"
#include "topo/partition.hpp"

namespace son {
namespace {

using namespace son::sim::literals;

struct GoldenResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_total = 0;
  std::uint64_t delivery_hash = 0;  // FNV-1a over (packet id, delivery time)
  std::int64_t last_delivery_ns = 0;
};

/// `cache_buckets` != 0 perturbs the route cache's hash-table layout: an
/// up-front rehash plus a second rehash mid-run (t = 2s, between the failure
/// bursts). Results must be bit-identical for ANY value — nothing in a
/// result path may observe unordered-container iteration order (the same
/// contract son-analyze's unordered-iter rule enforces statically).
GoldenResult run_golden_scenario(std::size_t cache_buckets = 0) {
  sim::Simulator sim;
  net::Internet::Config cfg;
  cfg.convergence_delay = sim::Duration::seconds(1);
  net::Internet net{sim, sim::Rng{0xC0FFEE}, cfg};
  if (cache_buckets != 0) {
    net.rehash_route_cache(cache_buckets);
    sim.schedule_at(sim::TimePoint::zero() + 2_s,
                    [&]() { net.rehash_route_cache(cache_buckets * 4); });
  }

  topo::DualIspOptions opts;
  opts.backbone_loss = 0.02;
  opts.skip_in_isp_a = {2, 11};
  opts.skip_in_isp_b = {4, 7};
  opts.peering_cities = {0, 7};
  const auto u = topo::build_dual_isp(net, topo::continental_us(), opts);

  GoldenResult r;
  std::uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;  // FNV prime
    }
  };
  for (const auto h : u.hosts) {
    net.bind(h, [&](const net::Datagram& d) {
      mix(d.id);
      mix(static_cast<std::uint64_t>(sim.now().ns()));
      r.last_delivery_ns = sim.now().ns();
    });
  }

  // Six CBR flows across the map, 1400-byte packets every 3 ms.
  struct Flow {
    net::Internet& net;
    net::HostId src, dst;
    sim::TimePoint stop;
    void tick() {
      if (net.simulator().now() >= stop) return;
      net::Datagram d;
      d.src = src;
      d.dst = dst;
      d.dst_port = 7;
      d.size_bytes = 1400;
      net.send(std::move(d));
      net.simulator().schedule(3_ms, [this]() { tick(); });
    }
  };
  std::vector<std::unique_ptr<Flow>> flows;
  const std::size_t n = u.hosts.size();
  for (std::size_t i = 0; i < 6; ++i) {
    flows.push_back(std::make_unique<Flow>(
        Flow{net, u.hosts[i], u.hosts[(i + n / 2) % n], sim::TimePoint::zero() + 5_s}));
    sim.schedule(sim::Duration::microseconds(137 * (i + 1)),
                 [f = flows.back().get()]() { f->tick(); });
  }

  // Failure schedule: single failures, a simultaneous multi-failure burst
  // (exercising convergence coalescing), and a repair.
  sim.schedule_at(sim::TimePoint::zero() + 500_ms,
                  [&]() { net.set_link_up(u.links_a[0], false); });
  sim.schedule_at(sim::TimePoint::zero() + 1200_ms,
                  [&]() { net.set_router_up(u.routers_b[3], false); });
  sim.schedule_at(sim::TimePoint::zero() + 1500_ms, [&]() {
    net.set_link_up(u.links_a[5], false);
    net.set_link_up(u.links_a[8], false);
    net.set_link_up(u.links_b[9], false);
  });
  sim.schedule_at(sim::TimePoint::zero() + 2500_ms,
                  [&]() { net.set_link_up(u.links_a[0], true); });

  sim.run();

  const auto& c = net.counters();
  r.sent = c.sent;
  r.delivered = c.delivered;
  for (const auto d : c.dropped) r.dropped_total += d;
  r.delivery_hash = hash;
  return r;
}

TEST(GoldenRun, SeededScenarioMatchesRecordedBaseline) {
  const GoldenResult r = run_golden_scenario();
  EXPECT_EQ(r.sent, 10002u);
  EXPECT_EQ(r.delivered, 8527u);
  EXPECT_EQ(r.dropped_total, 1475u);
  EXPECT_EQ(r.delivery_hash, 18392688617230050064ULL);
  EXPECT_EQ(r.last_delivery_ns, 5024211977);
}

// Runtime leg of the determinism contract: re-run the scenario in-process
// with very different hash-table geometries (tiny, huge, plus mid-run
// rehashes). Any code path that iterates an unordered container into a
// result would see different orders here and break the pinned hash.
TEST(GoldenRun, IndependentOfHashTableLayout) {
  const GoldenResult base = run_golden_scenario();
  for (const std::size_t buckets : {1ul, 7ul, 4096ul}) {
    const GoldenResult r = run_golden_scenario(buckets);
    EXPECT_EQ(r.sent, base.sent) << "buckets=" << buckets;
    EXPECT_EQ(r.delivered, base.delivered) << "buckets=" << buckets;
    EXPECT_EQ(r.dropped_total, base.dropped_total) << "buckets=" << buckets;
    EXPECT_EQ(r.delivery_hash, base.delivery_hash) << "buckets=" << buckets;
    EXPECT_EQ(r.last_delivery_ns, base.last_delivery_ns) << "buckets=" << buckets;
  }
}

// The flight recorder's inertness contract: observation is write-only.
// Running the identical scenario with a recorder (sampling every message)
// and a counter registry installed must reproduce the exact pinned baseline
// — no extra events, RNG draws, or allocation-order effects.
TEST(GoldenRun, TracingIsInert) {
  obs::Recorder rec{64, 1 << 12};
  rec.set_sample_all(true);
  obs::ScopedRecorder rscope{rec};
  obs::CounterRegistry reg;
  obs::ScopedCounterRegistry cscope{reg};

  const GoldenResult r = run_golden_scenario();
  EXPECT_EQ(r.sent, 10002u);
  EXPECT_EQ(r.delivered, 8527u);
  EXPECT_EQ(r.dropped_total, 1475u);
  EXPECT_EQ(r.delivery_hash, 18392688617230050064ULL);
  EXPECT_EQ(r.last_delivery_ns, 5024211977);
  // ...while actually observing: the underlay recorded its drops and the
  // registry mirrored the Internet counters exactly.
  EXPECT_GT(rec.total_recorded(), 0u);
  EXPECT_EQ(reg.value("net.sent"), r.sent);
  EXPECT_EQ(reg.value("net.delivered"), r.delivered);
}

TEST(GoldenRun, BackToBackRunsAreIdentical) {
  const GoldenResult a = run_golden_scenario();
  const GoldenResult b = run_golden_scenario();
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivery_hash, b.delivery_hash);
  EXPECT_EQ(a.last_delivery_ns, b.last_delivery_ns);
}

// ---- Sharded-kernel determinism contract -----------------------------------

struct ShardedGoldenResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_total = 0;
  std::uint64_t delivery_hash = 0;  // per-node FNV hashes folded in node order
  std::int64_t last_delivery_ns = 0;
  std::uint64_t cross_shard_pushes = 0;
  std::uint64_t kernel_rounds = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counter_entries;
  std::vector<obs::EventRecord> trace;
};

/// The full sharded stack on the 12-site continental map: one partition per
/// city, overlay protocol running, CBR cross-country flows, failure bursts
/// injected as global events, and full observability (recorder with one
/// system ring per partition + counter registry). `workers` MUST be a pure
/// wall-clock knob: every field of the result, down to the merged trace
/// bytes, is compared across worker counts.
ShardedGoldenResult run_sharded_scenario(unsigned workers) {
  obs::Recorder rec{16, 1 << 12, /*system_rings=*/12};
  rec.set_sample_all(true);
  obs::ScopedRecorder rscope{rec};
  obs::CounterRegistry reg;
  obs::ScopedCounterRegistry cscope{reg};

  overlay::ShardedMapOptions opts;
  opts.workers = workers;
  opts.underlay.backbone_loss = 0.01;
  opts.underlay.skip_in_isp_a = {2, 11};
  opts.underlay.skip_in_isp_b = {4, 7};
  opts.underlay.peering_cities = {0, 7};
  opts.net.convergence_delay = sim::Duration::seconds(1);
  auto fx = overlay::build_sharded_map(topo::continental_us(), opts, 0xBEEF);

  ShardedGoldenResult r;
  const std::size_t n = fx.underlay.hosts.size();
  // Per-node accumulators keep every handler partition-local; the fold below
  // runs after the kernel stops, in node order.
  std::vector<std::uint64_t> hash(n, 1469598103934665603ULL);
  std::vector<std::int64_t> last(n, 0);
  const auto mix = [](std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    fx.internet->bind(fx.underlay.hosts[i], 7, [&, i](const net::Datagram& d) {
      const std::int64_t t = fx.node_sim(static_cast<overlay::NodeId>(i)).now().ns();
      mix(hash[i], d.id);
      mix(hash[i], static_cast<std::uint64_t>(t));
      last[i] = t;
    });
  }

  fx.overlay->settle(3_s);
  const sim::TimePoint t0 = fx.kernel->now();

  // Six CBR flows across the map, each ticking on ITS OWN partition's
  // simulator — in a sharded run traffic sources live with their host.
  struct Flow {
    net::Internet& net;
    sim::Simulator& sim;
    net::HostId src, dst;
    sim::TimePoint stop;
    void tick() {
      if (sim.now() >= stop) return;
      net::Datagram d;
      d.src = src;
      d.dst = dst;
      d.dst_port = 7;
      d.size_bytes = 1400;
      net.send(std::move(d));
      sim.schedule(3_ms, [this]() { tick(); });
    }
  };
  std::vector<std::unique_ptr<Flow>> flows;
  for (std::size_t i = 0; i < 6; ++i) {
    auto& sim = fx.node_sim(static_cast<overlay::NodeId>(i));
    flows.push_back(std::make_unique<Flow>(
        Flow{*fx.internet, sim, fx.underlay.hosts[i], fx.underlay.hosts[(i + n / 2) % n],
             t0 + 2500_ms}));
    sim.schedule_at(t0 + sim::Duration::microseconds(137 * (i + 1)),
                    [f = flows.back().get()]() { f->tick(); });
  }

  // Failures are global events: they mutate shared believed/actual topology,
  // so the kernel runs them at a barrier with all partitions quiesced.
  auto& net = *fx.internet;
  const auto& u = fx.underlay;
  fx.kernel->schedule_global(t0 + 400_ms, [&]() { net.set_link_up(u.links_a[0], false); });
  fx.kernel->schedule_global(t0 + 1000_ms, [&]() {
    net.set_link_up(u.links_a[5], false);
    net.set_link_up(u.links_a[8], false);
    net.set_link_up(u.links_b[9], false);
  });
  fx.kernel->schedule_global(t0 + 1600_ms, [&]() { net.set_link_up(u.links_a[0], true); });

  fx.kernel->run_until(t0 + 3_s);

  const auto& c = net.counters();
  r.sent = c.sent;
  r.delivered = c.delivered;
  for (const auto d : c.dropped) r.dropped_total += d;
  std::uint64_t folded = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    mix(folded, hash[i]);
    if (last[i] > r.last_delivery_ns) r.last_delivery_ns = last[i];
  }
  r.delivery_hash = folded;
  for (std::uint32_t p = 0; p < 12; ++p) {
    for (std::uint32_t q = 0; q < 12; ++q) {
      if (const sim::ShardChannel* ch = fx.kernel->channel(p, q)) {
        r.cross_shard_pushes += ch->total_pushed();
      }
    }
  }
  r.kernel_rounds = fx.kernel->rounds();
  r.counter_entries = reg.entries();
  r.trace = rec.merged();
  return r;
}

TEST(GoldenRun, ShardedOneWorkerEqualsFour) {
  const ShardedGoldenResult one = run_sharded_scenario(1);
  const ShardedGoldenResult four = run_sharded_scenario(4);

  // Loose sanity on the scenario itself: real traffic, real parallel
  // structure, real drops.
  EXPECT_GT(one.sent, 1000u);
  EXPECT_GT(one.delivered, 0u);
  EXPECT_GT(one.dropped_total, 0u);
  EXPECT_GT(one.cross_shard_pushes, 0u);
  EXPECT_GT(one.kernel_rounds, 0u);
  EXPECT_FALSE(one.trace.empty());

  // The contract: bit-identical results, stats, counters, and merged traces.
  EXPECT_EQ(four.sent, one.sent);
  EXPECT_EQ(four.delivered, one.delivered);
  EXPECT_EQ(four.dropped_total, one.dropped_total);
  EXPECT_EQ(four.delivery_hash, one.delivery_hash);
  EXPECT_EQ(four.last_delivery_ns, one.last_delivery_ns);
  EXPECT_EQ(four.cross_shard_pushes, one.cross_shard_pushes);
  EXPECT_EQ(four.kernel_rounds, one.kernel_rounds);
  EXPECT_EQ(four.counter_entries, one.counter_entries);
  ASSERT_EQ(four.trace.size(), one.trace.size());
  EXPECT_EQ(std::memcmp(four.trace.data(), one.trace.data(),
                        one.trace.size() * sizeof(obs::EventRecord)),
            0);
}

// Back-to-back threaded runs in one process: no hidden state (TLS, pool
// reuse, ring contents) leaks between kernel lifetimes.
TEST(GoldenRun, ShardedRunIsRepeatable) {
  const ShardedGoldenResult a = run_sharded_scenario(2);
  const ShardedGoldenResult b = run_sharded_scenario(2);
  EXPECT_EQ(a.delivery_hash, b.delivery_hash);
  EXPECT_EQ(a.counter_entries, b.counter_entries);
}

// ---- Intrusion-tolerant crypto fast-path contract ---------------------------

/// An AUTHENTICATED sharded overlay scenario: per-hop HMAC on IT data frames
/// and on the signed control plane (hellos, LSAs, GSAs), overlay client
/// flows on IT-Priority and IT-Reliable, observability on. Used to pin that
/// the crypto fast path (KeyTable midstates, two-span streaming, one tag
/// point at each node's link boundary) reproduces the values recorded from
/// the seed crypto path, and that worker count stays a pure wall-clock knob.
ShardedGoldenResult run_it_auth_scenario(unsigned workers) {
  obs::Recorder rec{16, 1 << 12, /*system_rings=*/12};
  rec.set_sample_all(true);
  obs::ScopedRecorder rscope{rec};
  obs::CounterRegistry reg;
  obs::ScopedCounterRegistry cscope{reg};

  overlay::ShardedMapOptions opts;
  opts.workers = workers;
  opts.underlay.backbone_loss = 0.01;
  opts.net.convergence_delay = sim::Duration::seconds(1);
  opts.node.authenticate = true;
  opts.node.master_key[2] = 0x5A;
  opts.node.master_key[30] = 0xC3;
  auto fx = overlay::build_sharded_map(topo::continental_us(), opts, 0xF00D);

  ShardedGoldenResult r;
  const std::size_t n = fx.underlay.hosts.size();
  std::vector<std::uint64_t> hash(n, 1469598103934665603ULL);
  std::vector<std::int64_t> last(n, 0);
  const auto mix = [](std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  // IT overlay flows terminate at overlay clients; each handler runs on its
  // destination node's partition and folds into that node's accumulator.
  for (std::size_t i = 0; i < n; ++i) {
    auto& ep = fx.overlay->node(static_cast<overlay::NodeId>(i)).connect(200);
    ep.set_handler([&, i](const overlay::Message& m, sim::Duration lat) {
      mix(hash[i], m.hdr.origin_id);
      mix(hash[i], static_cast<std::uint64_t>(lat.ns()));
      last[i] = lat.ns();
      ++hash[i];  // distinguish identical (id, lat) repeats
    });
  }

  fx.overlay->settle(3_s);
  const sim::TimePoint t0 = fx.kernel->now();

  // Six cross-country flows, alternating IT-Priority / IT-Reliable, each
  // ticking on its source node's own partition simulator.
  struct ItFlow {
    overlay::ClientEndpoint& src;
    sim::Simulator& sim;
    overlay::Destination dest;
    overlay::ServiceSpec spec;
    sim::TimePoint stop;
    void tick() {
      if (sim.now() >= stop) return;
      src.send(dest, overlay::make_payload(300), spec);
      sim.schedule(sim::Duration::milliseconds(7), [this]() { tick(); });
    }
  };
  std::vector<std::unique_ptr<ItFlow>> flows;
  for (std::size_t i = 0; i < 6; ++i) {
    auto& sim = fx.node_sim(static_cast<overlay::NodeId>(i));
    const auto dst = static_cast<overlay::NodeId>((i + n / 2) % n);
    overlay::ServiceSpec spec;
    spec.link_protocol = (i % 2 == 0) ? overlay::LinkProtocol::kITPriority
                                      : overlay::LinkProtocol::kITReliable;
    flows.push_back(std::make_unique<ItFlow>(ItFlow{
        fx.overlay->node(static_cast<overlay::NodeId>(i)).connect(100), sim,
        overlay::Destination::unicast(dst, 200), spec, t0 + 1500_ms}));
    sim.schedule_at(t0 + sim::Duration::microseconds(211 * (i + 1)),
                    [f = flows.back().get()]() { f->tick(); });
  }

  fx.kernel->run_until(t0 + 2500_ms);

  std::uint64_t folded = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    mix(folded, hash[i]);
    if (last[i] > r.last_delivery_ns) r.last_delivery_ns = last[i];
  }
  r.delivery_hash = folded;
  for (overlay::NodeId i = 0; i < static_cast<overlay::NodeId>(n); ++i) {
    const auto& s = fx.overlay->node(i).stats();
    r.sent += s.originated;
    r.delivered += s.delivered_local;
    r.dropped_total += s.auth_failures;  // must stay zero: keys agree
  }
  r.kernel_rounds = fx.kernel->rounds();
  r.counter_entries = reg.entries();
  r.trace = rec.merged();
  return r;
}

// The fast path must not move a single byte: the deliveries and latencies
// (to the nanosecond, via the delivery hash) equal the values recorded while
// the seed crypto path (from-scratch HMAC over a heap-serialized buffer)
// still ran beside it and matched it run for run, and the merged trace and
// counters do not depend on the worker count.
TEST(GoldenRun, AuthenticatedItMatchesRecordedBaselineAndWorkers) {
  const ShardedGoldenResult fast1 = run_it_auth_scenario(1);
  EXPECT_EQ(fast1.sent, 1290u);
  EXPECT_EQ(fast1.delivered, 1280u);
  EXPECT_EQ(fast1.delivery_hash, 4517368452143668885ULL);
  EXPECT_EQ(fast1.last_delivery_ns, 68914412);
  // No control frame failed auth.
  EXPECT_EQ(fast1.dropped_total, 0u);
  // The obs counters actually counted per-hop crypto work.
  std::uint64_t sign_ops = 0, verify_ops = 0;
  for (const auto& [name, value] : fast1.counter_entries) {
    if (name == "crypto.sign_ops") sign_ops = value;
    if (name == "crypto.verify_ops") verify_ops = value;
  }
  EXPECT_GT(sign_ops, 0u);
  EXPECT_GT(verify_ops, 0u);
  // The whole counter snapshot equals the one recorded before the registry
  // became a fold over component stats.
  const std::vector<std::pair<std::string, std::uint64_t>> recorded = {
      {"crypto.sign_ops", 3252u},
      {"crypto.verify_ops", 3218u},
      {"net.delivered", 23381u},
      {"net.drop.link-down", 0u},
      {"net.drop.no-handler", 0u},
      {"net.drop.no-route", 0u},
      {"net.drop.none", 0u},
      {"net.drop.queue-overflow", 0u},
      {"net.drop.random-loss", 230u},
      {"net.drop.router-down", 0u},
      {"net.drop.stale-route", 0u},
      {"net.drop.ttl-expired", 0u},
      {"net.sent", 23617u},
      {"overlay.dedup.dropped", 0u},
      {"overlay.dedup.evictions", 0u},
      {"overlay.link.failovers", 59u},
      {"overlay.link.protocol_drops", 0u},
      {"overlay.membership.cache_evictions", 0u},
      {"overlay.membership.origin_evictions", 0u},
      {"overlay.route.compromised_dropped", 0u},
      {"overlay.route.no_route", 0u},
      {"overlay.route.ttl_expired", 0u},
  };
  EXPECT_EQ(fast1.counter_entries, recorded);

  const ShardedGoldenResult fast4 = run_it_auth_scenario(4);
  EXPECT_EQ(fast4.delivery_hash, fast1.delivery_hash);
  EXPECT_EQ(fast4.last_delivery_ns, fast1.last_delivery_ns);
  EXPECT_EQ(fast4.sent, fast1.sent);
  EXPECT_EQ(fast4.delivered, fast1.delivered);
  EXPECT_EQ(fast4.counter_entries, fast1.counter_entries);
  ASSERT_EQ(fast4.trace.size(), fast1.trace.size());
  EXPECT_EQ(std::memcmp(fast4.trace.data(), fast1.trace.data(),
                        fast1.trace.size() * sizeof(obs::EventRecord)),
            0);
}

// ---- Link-protocol data path -----------------------------------------------

struct LinkProtocolGoldenResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivery_hash = 0;  // FNV-1a over (flow_key, flow_seq, latency ns)
  std::int64_t last_delivery_ns = 0;
  // Endpoint stats summed over every node and link.
  std::uint64_t retransmissions = 0;  // reliable RTO/nack + realtime responses
  std::uint64_t sacked = 0;
  std::uint64_t recovered = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t lsa_floods = 0;
  // Scenario sanity: node 0 sees the cut link down, and flow 0 (0 -> 1)
  // still delivers once the overlay has rerouted around it.
  bool cut_link_down = false;
  std::uint64_t rerouted_deliveries = 0;
};

/// Reliable, RealtimeSimple and RealtimeNM flows on C_10(1,2) with 2% loss on
/// every fiber. One fiber carrying a flow fails mid-run (the underlay does not
/// reconverge inside the window), so the overlay link goes down, LSAs flood
/// and the flows reroute. Pins the link protocols' sender windows, receiver
/// gap tracking and the control plane's flood path across commits.
LinkProtocolGoldenResult run_link_protocol_scenario() {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(10), gopts,
                                         sim::Rng{0x11A7});
  for (const auto l : fx.fiber) {
    const auto [a, b] = fx.internet->link_endpoints(l);
    fx.internet->link_dir(l, a).set_loss_model(net::make_bernoulli(0.02));
    fx.internet->link_dir(l, b).set_loss_model(net::make_bernoulli(0.02));
  }
  fx.overlay->settle(3_s);
  const sim::TimePoint t0 = sim.now();

  LinkProtocolGoldenResult r;
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  const sim::TimePoint cut_at = t0 + 1200_ms;
  const std::size_t n = fx.overlay->size();
  for (overlay::NodeId i = 0; i < n; ++i) {
    fx.overlay->node(i).connect(200).set_handler(
        [&](const overlay::Message& m, sim::Duration lat) {
          mix(m.hdr.flow_key);
          mix(m.hdr.flow_seq);
          mix(static_cast<std::uint64_t>(lat.ns()));
          ++r.delivered;
          r.last_delivery_ns = sim.now().ns();
          if (m.hdr.origin == 0 && m.hdr.dest.node == 1 && sim.now() > cut_at + 1_s) {
            ++r.rerouted_deliveries;
          }
        });
  }

  struct Flow {
    overlay::ClientEndpoint& src;
    sim::Simulator& sim;
    overlay::Destination dest;
    overlay::ServiceSpec spec;
    sim::TimePoint stop;
    std::uint64_t& sent;
    void tick() {
      if (sim.now() >= stop) return;
      if (src.send(dest, overlay::make_payload(200), spec)) ++sent;
      sim.schedule(4_ms, [this]() { tick(); });
    }
  };
  // Nine flows, three per protocol; flow 0 runs 0 -> 1 over the fiber that
  // fails, the rest cross the ring.
  const overlay::LinkProtocol protos[] = {overlay::LinkProtocol::kReliable,
                                          overlay::LinkProtocol::kRealtimeSimple,
                                          overlay::LinkProtocol::kRealtimeNM};
  std::vector<std::unique_ptr<Flow>> flows;
  for (std::size_t i = 0; i < 9; ++i) {
    const auto src = static_cast<overlay::NodeId>(i % n);
    const auto dst = static_cast<overlay::NodeId>(i == 0 ? 1 : (i + n / 2) % n);
    overlay::ServiceSpec spec;
    spec.link_protocol = protos[i % 3];
    if (spec.link_protocol != overlay::LinkProtocol::kReliable) spec.deadline = 120_ms;
    flows.push_back(std::make_unique<Flow>(Flow{fx.overlay->node(src).connect(100), sim,
                                                overlay::Destination::unicast(dst, 200),
                                                spec, t0 + 3_s, r.sent}));
    sim.schedule_at(t0 + sim::Duration::microseconds(173 * (i + 1)),
                    [f = flows.back().get()]() { f->tick(); });
  }

  const topo::EdgeIndex cut = fx.overlay->designed_topology().find_edge(0, 1);
  sim.schedule_at(cut_at, [&]() { fx.internet->set_link_up(fx.fiber[cut], false); });

  sim.run_until(t0 + 5_s);

  r.delivery_hash = hash;
  r.cut_link_down = !fx.overlay->node(0).link_health(static_cast<overlay::LinkBit>(cut)).up;
  for (overlay::NodeId i = 0; i < n; ++i) {
    auto& node = fx.overlay->node(i);
    r.lsa_floods += node.stats().lsa_floods;
    for (const overlay::LinkBit b : node.link_bits()) {
      if (const auto* rel = dynamic_cast<const overlay::ReliableLinkEndpoint*>(
              node.find_endpoint(b, overlay::LinkProtocol::kReliable))) {
        r.retransmissions += rel->stats().retransmissions;
        r.sacked += rel->stats().sacked;
        r.duplicates += rel->stats().duplicates_received;
      }
      for (const auto proto :
           {overlay::LinkProtocol::kRealtimeSimple, overlay::LinkProtocol::kRealtimeNM}) {
        if (const auto* rt = dynamic_cast<const overlay::RealtimeEndpointBase*>(
                node.find_endpoint(b, proto))) {
          r.retransmissions += rt->stats().retransmissions_sent;
          r.recovered += rt->stats().recovered;
          r.requests_sent += rt->stats().requests_sent;
          r.duplicates += rt->stats().duplicates;
        }
      }
    }
  }
  return r;
}

// The link protocols' observable behaviour is pinned across commits: every
// delivery (to the nanosecond) and every recovery counter equals the recorded
// constants, whatever representation the sender windows, receiver
// bookkeeping and flooded control ads use.
TEST(GoldenRun, LinkProtocolsMatchRecordedBaseline) {
  const LinkProtocolGoldenResult r = run_link_protocol_scenario();
  EXPECT_EQ(r.sent, 6750u);
  EXPECT_EQ(r.delivered, 6347u);
  EXPECT_EQ(r.delivery_hash, 99071730490073476ULL);
  EXPECT_EQ(r.last_delivery_ns, 6087660802);
  EXPECT_EQ(r.retransmissions, 2148u);
  EXPECT_EQ(r.sacked, 722u);
  EXPECT_EQ(r.recovered, 261u);
  EXPECT_EQ(r.requests_sent, 428u);
  EXPECT_EQ(r.duplicates, 344u);
  EXPECT_EQ(r.lsa_floods, 4488u);
  EXPECT_TRUE(r.cut_link_down);
  EXPECT_GT(r.rerouted_deliveries, 0u);
}

}  // namespace
}  // namespace son
