// Sharded-kernel determinism with FlowEngine workloads at scale.
//
// One engine per partition (12 continental sites), ~8.5k tagged flows each —
// beyond 100k concurrent flows in one trial — driving cross-country unicast
// through the sharded kernel. The contract under test: the per-node delivery
// digests, engine totals and network counters are bit-identical whether the
// kernel runs on 1 worker or 4 (flow workloads must not leak execution
// layout into results; engine RNG comes from sim::component_stream).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "client/flow_engine.hpp"
#include "overlay/sharded.hpp"

namespace son::client {
namespace {

using namespace son::sim::literals;
using overlay::Destination;

constexpr std::size_t kSites = 12;
constexpr std::size_t kFlowsPerSite = 8500;  // 102k concurrent flows total

struct ShardedFlowsResult {
  std::uint64_t activated = 0;
  std::uint64_t sent = 0;
  std::uint64_t blocked = 0;
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t digest = 1469598103934665603ULL;
};

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

ShardedFlowsResult run_sharded_flows(unsigned workers) {
  overlay::ShardedMapOptions opts;
  opts.workers = workers;
  // 100k tagged flow keys would explode the per-flow session maps — this is
  // exactly the workload the accounting knob exists for.
  opts.node.session_flow_accounting = false;
  const std::uint64_t seed = 0xF10E5;
  auto fx = overlay::build_sharded_map(topo::continental_us(), opts, seed);

  // Per-node digest accumulators: every handler runs on its own partition's
  // worker, so each slot is only written partition-locally.
  std::vector<std::uint64_t> digest(kSites, 1469598103934665603ULL);
  std::vector<std::uint64_t> received(kSites, 0);
  for (std::size_t i = 0; i < kSites; ++i) {
    auto& sink = fx.overlay->node(static_cast<overlay::NodeId>(i)).connect(9);
    sink.set_handler([&digest, &received, &fx, i](const overlay::Message& m, sim::Duration) {
      mix(digest[i], m.hdr.flow_key);
      mix(digest[i], m.hdr.flow_seq);
      mix(digest[i],
          static_cast<std::uint64_t>(fx.node_sim(static_cast<overlay::NodeId>(i)).now().ns()));
      ++received[i];
    });
  }

  fx.overlay->settle(3_s);
  const sim::TimePoint t0 = fx.kernel->now();

  std::vector<std::unique_ptr<FlowEngine>> engines;
  for (std::size_t i = 0; i < kSites; ++i) {
    const auto id = static_cast<overlay::NodeId>(i);
    FlowEngineOptions eo;
    FlowClass c;
    c.rate_pps = 1.0;  // one packet per second per flow — population, not rate
    c.payload_bytes = 120;
    eo.classes = {c};
    eo.dests = {Destination::unicast(static_cast<overlay::NodeId>((i + 6) % kSites), 9)};
    eo.flows = kFlowsPerSite;  // static population living until stop
    eo.start = t0 + sim::Duration::microseconds(137 * (static_cast<std::int64_t>(i) + 1));
    eo.stop = t0 + 2_s;
    engines.push_back(std::make_unique<FlowEngine>(
        fx.node_sim(id), fx.overlay->node(id).connect(3), eo,
        sim::component_stream(seed, static_cast<std::uint32_t>(i), overlay::kStreamFlowEngine,
                              i)));
    engines.back()->start();
  }

  fx.kernel->run_until(t0 + 5_s);

  ShardedFlowsResult r;
  for (const auto& e : engines) {
    r.activated += e->totals().activated;
    r.sent += e->totals().sent;
    r.blocked += e->totals().blocked;
    EXPECT_EQ(e->active_flows(), 0u);  // 1 pps flows all retire before +5 s
  }
  r.net_sent = fx.internet->counters().sent;
  r.net_delivered = fx.internet->counters().delivered;
  std::uint64_t folded = 1469598103934665603ULL;
  std::uint64_t total_received = 0;
  for (std::size_t i = 0; i < kSites; ++i) {
    mix(folded, digest[i]);
    total_received += received[i];
  }
  r.digest = folded;
  EXPECT_GT(total_received, 0u);
  return r;
}

TEST(FlowsSharded, HundredThousandFlowsOneWorkerEqualsFour) {
  const ShardedFlowsResult one = run_sharded_flows(1);
  const ShardedFlowsResult four = run_sharded_flows(4);

  // The scenario is real: the full population activates and sends.
  EXPECT_EQ(one.activated, kSites * kFlowsPerSite);
  EXPECT_GT(one.sent, kSites * kFlowsPerSite);  // ≥ 1 packet per flow

  // The contract: flow digests and counters match across worker counts.
  EXPECT_EQ(four.activated, one.activated);
  EXPECT_EQ(four.sent, one.sent);
  EXPECT_EQ(four.blocked, one.blocked);
  EXPECT_EQ(four.net_sent, one.net_sent);
  EXPECT_EQ(four.net_delivered, one.net_delivered);
  EXPECT_EQ(four.digest, one.digest);
}

}  // namespace
}  // namespace son::client
