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
/// contract son-lint's unordered-iter rule enforces statically).
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

  fx.settle(3_s);
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
/// the crypto fast path (midstate MacContexts, two-span streaming,
/// flood-suffix cache) reproduces the values recorded from the seed crypto
/// path, and that worker count stays a pure wall-clock knob.
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

  fx.settle(3_s);
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
    r.dropped_total += s.control_auth_failures;  // must stay zero: keys agree
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

}  // namespace
}  // namespace son
