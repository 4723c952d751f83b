// Sharded-kernel unit tests: horizon computation, channel ordering, barrier
// semantics for global events, run_before, component RNG streams, and the
// worker-count invariance contract on a micro topology.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace son::sim {
namespace {

using namespace son::sim::literals;

TimePoint at_ms(std::int64_t ms) { return TimePoint::zero() + Duration::milliseconds(ms); }

// ---- Simulator::run_before -------------------------------------------------

TEST(RunBefore, IsExclusiveAndDoesNotAdvanceClock) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(at_ms(10), [&]() { fired.push_back(10); });
  sim.schedule_at(at_ms(20), [&]() { fired.push_back(20); });

  EXPECT_EQ(sim.run_before(at_ms(20)), 1u);
  EXPECT_EQ(fired, std::vector<int>({10}));
  // The bound itself did not fire, and the clock sits at the last event, not
  // at the bound — run_before never invents a time with no event on it.
  EXPECT_EQ(sim.now(), at_ms(10));

  EXPECT_EQ(sim.run_until(at_ms(20)), 1u);
  EXPECT_EQ(fired, std::vector<int>({10, 20}));
}

// ---- Horizon computation ---------------------------------------------------

TEST(ShardHorizon, RespectsInChannelLookahead) {
  ShardedKernel k{2};
  k.add_channel(0, 1, Duration::milliseconds(5));

  // Partition 0 has no in-channels: its horizon is the cap. Partition 1 may
  // only run to committed(0) + lookahead.
  EXPECT_EQ(k.horizon_of(0, at_ms(100)), at_ms(100));
  EXPECT_EQ(k.horizon_of(1, at_ms(100)), at_ms(5));
  // A cap below the lookahead bound wins.
  EXPECT_EQ(k.horizon_of(1, at_ms(2)), at_ms(2));
}

TEST(ShardHorizon, AdvancesWithSourceCommit) {
  ShardedKernel k{2};
  k.add_channel(0, 1, Duration::milliseconds(5));
  k.shard_sim(0).schedule_at(at_ms(50), []() {});

  k.run_until(at_ms(50));
  EXPECT_EQ(k.committed(0), at_ms(50));
  EXPECT_EQ(k.committed(1), at_ms(50));
  EXPECT_EQ(k.horizon_of(1, at_ms(1000)), at_ms(55));
}

TEST(ShardHorizon, MinLookaheadReportsTightestChannel) {
  ShardedKernel k{3};
  k.add_channel(0, 1, Duration::milliseconds(5));
  k.add_channel(1, 2, Duration::milliseconds(2));
  EXPECT_EQ(k.min_lookahead(), Duration::milliseconds(2));
}

// ---- Channel ordering ------------------------------------------------------

TEST(ShardChannel, DeliversInTimeOrderWithFifoTies) {
  ShardedKernel k{2};
  ShardChannel& ch = k.add_channel(0, 1, Duration::milliseconds(1));

  std::vector<int> order;
  // Pushed out of time order, with a same-timestamp pair: delivery must be in
  // (time, push order) — the flush preserves buffer order and the destination
  // queue breaks time ties by schedule sequence.
  k.shard_sim(0).schedule_at(at_ms(1), [&]() {
    ch.push(at_ms(30), [&order]() { order.push_back(3); });
    ch.push(at_ms(10), [&order]() { order.push_back(1); });
    ch.push(at_ms(10), [&order]() { order.push_back(2); });
    ch.push(at_ms(40), [&order]() { order.push_back(4); });
  });

  k.run_until(at_ms(100));
  EXPECT_EQ(order, std::vector<int>({1, 2, 3, 4}));
  EXPECT_EQ(ch.total_pushed(), 4u);
}

TEST(ShardChannel, CrossShardPingPongConverges) {
  ShardedKernel k{2};
  ShardChannel& a_to_b = k.add_channel(0, 1, Duration::milliseconds(10));
  ShardChannel& b_to_a = k.add_channel(1, 0, Duration::milliseconds(10));

  // Each side echoes back 10 ms after receipt; times interleave precisely.
  std::vector<std::int64_t> hits;
  std::function<void(int)> bounce = [&](int hops) {
    const PartitionId p = static_cast<PartitionId>(hops % 2);
    Simulator& sim = k.shard_sim(p);
    hits.push_back(sim.now().ns());
    if (hops >= 6) return;
    ShardChannel& out = p == 0 ? a_to_b : b_to_a;
    out.push(sim.now() + Duration::milliseconds(10), [&bounce, hops]() { bounce(hops + 1); });
  };
  k.shard_sim(0).schedule_at(at_ms(0), [&bounce]() { bounce(0); });

  k.run_until(at_ms(200));
  ASSERT_EQ(hits.size(), 7u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], static_cast<std::int64_t>(i) * 10'000'000);
  }
  EXPECT_EQ(k.now(), at_ms(200));
}

#if SON_DCHECK_ENABLED
using ShardChannelDeathTest = ::testing::Test;

TEST(ShardChannelDeathTest, LookaheadViolationAborts) {
  ShardedKernel k{2};
  ShardChannel& ch = k.add_channel(0, 1, Duration::milliseconds(5));
  // when < floor + lookahead: the event would land in the destination's past.
  EXPECT_DEATH(ch.push(at_ms(1), []() {}), "lookahead");
}

TEST(ShardChannelDeathTest, ZeroLookaheadChannelAborts) {
  ShardedKernel k{2};
  EXPECT_DEATH(k.add_channel(0, 1, Duration::zero()), "lookahead");
}
#endif

// ---- Global (control-plane) events ----------------------------------------

TEST(ShardGlobal, RunsAtBarrierBeforePartitionEventsAtSameInstant) {
  ShardedKernel k{2};
  k.add_channel(0, 1, Duration::milliseconds(1));

  bool flag = false;
  bool seen_by_partition = false;
  k.schedule_global(at_ms(10), [&]() { flag = true; });
  // A partition event at exactly the global event's time observes its effect:
  // control runs first at the barrier, with every partition quiesced.
  k.shard_sim(1).schedule_at(at_ms(10), [&]() { seen_by_partition = flag; });

  k.run_until(at_ms(20));
  EXPECT_TRUE(flag);
  EXPECT_TRUE(seen_by_partition);
}

TEST(ShardGlobal, ReadsPartitionClocksAtTheBarrier) {
  ShardedKernel k{2};
  k.add_channel(0, 1, Duration::milliseconds(1));
  Simulator& part = k.shard_sim(0);
  part.schedule_at(at_ms(1), []() {});

  // The partition's last event fired at 1 ms, but a global event at 10 ms
  // must see the partition at 10 ms, and what it schedules there is timed
  // from 10 ms — not from the partition's committed past.
  TimePoint seen;
  TimePoint follow_up;
  k.schedule_global(at_ms(10), [&]() {
    seen = part.now();
    part.schedule(Duration::milliseconds(2), [&]() { follow_up = part.now(); });
  });

  k.run_until(at_ms(20));
  EXPECT_EQ(seen, at_ms(10));
  EXPECT_EQ(follow_up, at_ms(12));
}

TEST(ShardGlobal, RepeatedRunsAtSameDeadlineTerminate) {
  ShardedKernel k{2};
  k.add_channel(0, 1, Duration::milliseconds(1));
  k.shard_sim(0).schedule_at(at_ms(5), []() {});
  EXPECT_EQ(k.run_until(at_ms(10)), 1u);
  EXPECT_EQ(k.run_until(at_ms(10)), 0u);  // no progress needed, returns
  EXPECT_EQ(k.now(), at_ms(10));
}

// ---- Worker-count invariance ----------------------------------------------

// A micro scenario with per-partition self-traffic, RNG draws, and cross-ring
// pushes. The digest folds every event (partition, time, value) — it must be
// bit-identical for any worker count.
std::uint64_t ring_digest(unsigned workers) {
  constexpr std::size_t kParts = 3;
  ShardedKernel k{kParts, workers};
  std::vector<ShardChannel*> next(kParts);
  for (std::uint32_t p = 0; p < kParts; ++p) {
    next[p] = &k.add_channel(p, (p + 1) % kParts, Duration::milliseconds(3));
  }

  std::vector<std::uint64_t> digest(kParts, 0x9E3779B97F4A7C15ULL);
  std::vector<Rng> rng;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    rng.push_back(component_stream(/*seed=*/7, p, /*component=*/9, /*node=*/0));
  }
  const auto mix = [&digest](std::uint32_t p, std::uint64_t v) {
    digest[p] ^= v + 0x9E3779B97F4A7C15ULL + (digest[p] << 6) + (digest[p] >> 2);
  };

  std::function<void(std::uint32_t, int)> hop = [&](std::uint32_t p, int depth) {
    Simulator& sim = k.shard_sim(p);
    const std::uint64_t draw = rng[p].next_u64();
    mix(p, static_cast<std::uint64_t>(sim.now().ns()) ^ draw);
    if (depth >= 12) return;
    // Local follow-up plus a cross-ring push, both at RNG-jittered offsets.
    sim.schedule(Duration::microseconds(100 + draw % 500),
                 [&hop, p, depth]() { hop(p, depth + 1); });
    next[p]->push(sim.now() + Duration::milliseconds(3) + Duration::microseconds(draw % 900),
                  [&hop, p, depth]() { hop((p + 1) % kParts, depth + 1); });
  };
  for (std::uint32_t p = 0; p < kParts; ++p) {
    k.shard_sim(p).schedule_at(at_ms(static_cast<std::int64_t>(p) + 1),
                               [&hop, p]() { hop(p, 0); });
  }

  k.run_until(at_ms(500));
  std::uint64_t folded = k.events_fired();
  for (std::uint32_t p = 0; p < kParts; ++p) {
    mix(p, k.shard_sim(p).events_fired());
    folded ^= digest[p] * (p + 1);
  }
  return folded;
}

TEST(ShardDeterminism, WorkerCountNeverChangesResults) {
  const std::uint64_t one = ring_digest(1);
  EXPECT_EQ(ring_digest(2), one);
  EXPECT_EQ(ring_digest(3), one);
  // More workers than partitions: clamped, still identical.
  EXPECT_EQ(ring_digest(8), one);
}

// ---- Component RNG streams -------------------------------------------------

TEST(ComponentStream, IsAPureFunctionOfItsKey) {
  // Derivation order must not matter: draw the same tuple's stream before and
  // after constructing unrelated streams — identical sequences.
  Rng direct = component_stream(42, 3, 2, 17);
  const std::uint64_t a0 = direct.next_u64();
  const std::uint64_t a1 = direct.next_u64();

  for (std::uint32_t p = 0; p < 4; ++p) {
    for (std::uint64_t node = 0; node < 20; ++node) {
      (void)component_stream(42, p, 2, node).next_u64();
    }
  }
  Rng again = component_stream(42, 3, 2, 17);
  EXPECT_EQ(again.next_u64(), a0);
  EXPECT_EQ(again.next_u64(), a1);
}

TEST(ComponentStream, DistinctKeysGiveDistinctStreams) {
  const std::uint64_t base = component_stream(42, 1, 2, 3).next_u64();
  EXPECT_NE(component_stream(43, 1, 2, 3).next_u64(), base);  // seed
  EXPECT_NE(component_stream(42, 2, 2, 3).next_u64(), base);  // partition
  EXPECT_NE(component_stream(42, 1, 3, 3).next_u64(), base);  // component
  EXPECT_NE(component_stream(42, 1, 2, 4).next_u64(), base);  // node
}

// The regression the keyed derivation exists to prevent: a sequential
// fork-by-construction-order chain gives node i a DIFFERENT stream when the
// node set is split across partitions (construction order changes per
// layout), while the keyed stream is layout-independent by construction.
TEST(ComponentStream, SequentialForkWouldDependOnLayout) {
  Rng root_a{42};
  Rng root_b{42};
  // Layout A constructs nodes 0,1,2,3; layout B constructs them 2,3,0,1 (two
  // partitions built one after the other). Node 0's sequential fork differs.
  std::vector<std::uint64_t> layout_a, layout_b;
  for (const int id : {0, 1, 2, 3}) layout_a.push_back(root_a.fork(0x4000 + id).next_u64());
  for (const int id : {2, 3, 0, 1}) layout_b.push_back(root_b.fork(0x4000 + id).next_u64());
  EXPECT_EQ(layout_a[0], layout_b[2]);  // fork keyed by id alone is stable...
  EXPECT_EQ(layout_a[2], layout_b[0]);
  // ...the historical failure mode is chains that draw from the parent
  // sequentially, where a partition boundary shifts every later draw:
  Rng seq_a{42};
  std::vector<std::uint64_t> chain_a, chain_b;
  for (int i = 0; i < 4; ++i) chain_a.push_back(seq_a.next_u64());
  Rng seq_b{42};
  (void)seq_b.next_u64();  // partition boundary shifts the draw position
  for (int i = 0; i < 4; ++i) chain_b.push_back(seq_b.next_u64());
  EXPECT_NE(chain_a, chain_b);

  // The keyed stream is identical no matter which order the layouts touch it.
  std::vector<std::uint64_t> keyed_a, keyed_b;
  for (const int id : {0, 1, 2, 3}) {
    keyed_a.push_back(component_stream(42, static_cast<std::uint32_t>(id / 2), 2,
                                       static_cast<std::uint64_t>(id))
                          .next_u64());
  }
  for (const int id : {2, 3, 0, 1}) {
    keyed_b.push_back(component_stream(42, static_cast<std::uint32_t>(id / 2), 2,
                                       static_cast<std::uint64_t>(id))
                          .next_u64());
  }
  // Same tuple → same value, independent of visit order.
  EXPECT_EQ(keyed_a[0], keyed_b[2]);
  EXPECT_EQ(keyed_a[1], keyed_b[3]);
  EXPECT_EQ(keyed_a[2], keyed_b[0]);
  EXPECT_EQ(keyed_a[3], keyed_b[1]);
}

}  // namespace
}  // namespace son::sim
