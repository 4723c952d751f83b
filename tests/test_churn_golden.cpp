// Golden-run determinism under churn: a sharded continental deployment with
// random crash-recover churn, membership eviction and overlay client flows
// must be bit-identical across worker counts. Churn events go through the
// kernel's control sim (round-barrier execution), and the whole event list
// is materialized at script time from a dedicated Rng, so the schedule is a
// pure function of (config, seed) — this test pins both properties.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>

#include "net/internet.hpp"
#include "obs/counters.hpp"
#include "obs/recorder.hpp"
#include "overlay/churn.hpp"
#include "overlay/sharded.hpp"
#include "sim/shard.hpp"
#include "topo/backbones.hpp"

namespace son {
namespace {

using namespace son::sim::literals;

struct ShardedChurnResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t origin_evictions = 0;
  std::uint64_t peer_restarts_seen = 0;
  std::uint64_t stale_incarnation_drops = 0;
  std::size_t cycles_scheduled = 0;
  std::uint64_t delivery_hash = 0;  // per-node FNV hashes folded in node order
  std::uint64_t cross_shard_pushes = 0;
  std::uint64_t kernel_rounds = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counter_entries;
  std::vector<obs::EventRecord> trace;
};

/// The full churn stack, sharded: continental map, one partition per city,
/// membership timeouts armed, cross-country flows, and Poisson crash-recover
/// churn whose outages outlast dead_origin_timeout (so eviction + rejoin
/// actually fire). `workers` must be a pure wall-clock knob.
ShardedChurnResult run_churn_scenario(unsigned workers) {
  obs::Recorder rec{16, 1 << 12, /*system_rings=*/12};
  rec.set_sample_all(true);
  obs::ScopedRecorder rscope{rec};
  obs::CounterRegistry reg;
  obs::ScopedCounterRegistry cscope{reg};

  overlay::ShardedMapOptions opts;
  opts.workers = workers;
  opts.net.convergence_delay = sim::Duration::seconds(1);
  opts.node.dead_origin_timeout = 2500_ms;
  auto fx = overlay::build_sharded_map(topo::continental_us(), opts, 0xC41A);

  ShardedChurnResult r;
  const std::size_t n = fx.underlay.hosts.size();
  std::vector<std::uint64_t> hash(n, 1469598103934665603ULL);
  const auto mix = [](std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  // Each delivery handler runs on its destination's partition and folds into
  // that node's accumulator; the fold below runs after the kernel stops.
  for (std::size_t i = 0; i < n; ++i) {
    auto& ep = fx.overlay->node(static_cast<overlay::NodeId>(i)).connect(200);
    ep.set_handler([&, i](const overlay::Message& m, sim::Duration lat) {
      mix(hash[i], m.hdr.origin_id);
      mix(hash[i], static_cast<std::uint64_t>(lat.ns()));
      ++hash[i];  // distinguish identical (id, lat) repeats
    });
  }

  fx.overlay->settle(3_s);
  const sim::TimePoint t0 = fx.kernel->now();

  // Six cross-country flows, each ticking on its source node's partition.
  // Sources and sinks are churned like everyone else (node 0 is spared so
  // at least one flow runs end to end throughout).
  struct ChurnFlow {
    overlay::ClientEndpoint& src;
    sim::Simulator& sim;
    overlay::Destination dest;
    overlay::ServiceSpec spec;
    sim::TimePoint stop;
    void tick() {
      if (sim.now() >= stop) return;
      (void)src.send(dest, overlay::make_payload(300), spec);
      sim.schedule(sim::Duration::milliseconds(7), [this]() { tick(); });
    }
  };
  std::vector<std::unique_ptr<ChurnFlow>> flows;
  for (std::size_t i = 0; i < 6; ++i) {
    auto& sim = fx.node_sim(static_cast<overlay::NodeId>(i));
    const auto dst = static_cast<overlay::NodeId>((i + n / 2) % n);
    overlay::ServiceSpec spec;
    spec.link_protocol = (i % 2 == 0) ? overlay::LinkProtocol::kITPriority
                                      : overlay::LinkProtocol::kBestEffort;
    flows.push_back(std::make_unique<ChurnFlow>(ChurnFlow{
        fx.overlay->node(static_cast<overlay::NodeId>(i)).connect(100), sim,
        overlay::Destination::unicast(dst, 200), spec, t0 + 4_s}));
    sim.schedule_at(t0 + sim::Duration::microseconds(173 * (i + 1)),
                    [f = flows.back().get()]() { f->tick(); });
  }

  overlay::ChurnScript script{*fx.overlay};
  overlay::ChurnScript::RandomChurnConfig ccfg;
  ccfg.from = t0 + 500_ms;
  ccfg.until = t0 + 4_s;
  ccfg.events_per_sec = 1.0;
  ccfg.down_for = 3_s;  // outlasts dead_origin_timeout: evictions fire
  ccfg.seed = 77;
  ccfg.spare = 0;
  r.cycles_scheduled = script.random_churn(ccfg);

  fx.kernel->run_until(t0 + 6_s);

  std::uint64_t folded = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) mix(folded, hash[i]);
  r.delivery_hash = folded;
  for (overlay::NodeId i = 0; i < static_cast<overlay::NodeId>(n); ++i) {
    const auto& s = fx.overlay->node(i).stats();
    r.sent += s.originated;
    r.delivered += s.delivered_local;
    r.origin_evictions += s.origin_evictions;
    r.peer_restarts_seen += s.peer_restarts_seen;
    r.stale_incarnation_drops += s.stale_incarnation_drops;
  }
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

TEST(ChurnGoldenRun, ShardedOneWorkerEqualsFour) {
  const ShardedChurnResult one = run_churn_scenario(1);
  const ShardedChurnResult four = run_churn_scenario(4);

  // The scenario is real: traffic flowed, churn actually crashed and
  // recovered nodes, silence was detected, state was evicted and rejoins
  // were observed at fresh incarnations.
  EXPECT_GT(one.sent, 500u);
  EXPECT_GT(one.delivered, 0u);
  EXPECT_GT(one.cycles_scheduled, 0u);
  EXPECT_GT(one.origin_evictions, 0u);
  EXPECT_GT(one.peer_restarts_seen, 0u);
  EXPECT_GT(one.cross_shard_pushes, 0u);
  EXPECT_FALSE(one.trace.empty());

  // The contract: bit-identical churn schedule, deliveries, membership
  // verdicts, counters and merged traces, whatever the worker count.
  EXPECT_EQ(four.cycles_scheduled, one.cycles_scheduled);
  EXPECT_EQ(four.sent, one.sent);
  EXPECT_EQ(four.delivered, one.delivered);
  EXPECT_EQ(four.origin_evictions, one.origin_evictions);
  EXPECT_EQ(four.peer_restarts_seen, one.peer_restarts_seen);
  EXPECT_EQ(four.stale_incarnation_drops, one.stale_incarnation_drops);
  EXPECT_EQ(four.delivery_hash, one.delivery_hash);
  EXPECT_EQ(four.cross_shard_pushes, one.cross_shard_pushes);
  EXPECT_EQ(four.kernel_rounds, one.kernel_rounds);
  EXPECT_EQ(four.counter_entries, one.counter_entries);
  // The whole counter snapshot equals the one recorded before the registry
  // became a fold over component stats, through restarts that clear dedup
  // caches, reset link endpoints and evict origins.
  const std::vector<std::pair<std::string, std::uint64_t>> recorded = {
      {"crypto.sign_ops", 0u},
      {"crypto.verify_ops", 0u},
      {"net.delivered", 38273u},
      {"net.drop.link-down", 0u},
      {"net.drop.no-handler", 0u},
      {"net.drop.no-route", 0u},
      {"net.drop.none", 0u},
      {"net.drop.queue-overflow", 0u},
      {"net.drop.random-loss", 0u},
      {"net.drop.router-down", 0u},
      {"net.drop.stale-route", 0u},
      {"net.drop.ttl-expired", 0u},
      {"net.sent", 38400u},
      {"overlay.dedup.dropped", 0u},
      {"overlay.dedup.evictions", 0u},
      {"overlay.link.failovers", 0u},
      {"overlay.link.protocol_drops", 0u},
      {"overlay.membership.cache_evictions", 0u},
      {"overlay.membership.origin_evictions", 36u},
      {"overlay.route.compromised_dropped", 0u},
      {"overlay.route.no_route", 509u},
      {"overlay.route.ttl_expired", 0u},
  };
  EXPECT_EQ(one.counter_entries, recorded);
  ASSERT_EQ(four.trace.size(), one.trace.size());
  EXPECT_EQ(std::memcmp(four.trace.data(), one.trace.data(),
                        one.trace.size() * sizeof(obs::EventRecord)),
            0);
}

}  // namespace
}  // namespace son
