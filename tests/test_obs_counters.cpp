// Counter registry: the fold over published stats blocks, scoped thread-local
// install, and the exp integration — every trial runs inside its own
// registry and the aggregated counter section of a report is bit-identical
// at any --jobs.
#include <gtest/gtest.h>

#include <cstddef>

#include "exp/experiment.hpp"
#include "obs/counters.hpp"
#include "sim/random.hpp"

namespace son::obs {
namespace {

struct Block {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
// Table order differs from name order on purpose.
constexpr Field kBlockFields[] = {{"b.count", offsetof(Block, b)},
                                  {"a.count", offsetof(Block, a)}};

using Entry = std::pair<std::string, std::uint64_t>;

TEST(ObsCounters, HandleIsNoOpWithoutRegistry) {
  ASSERT_EQ(CounterRegistry::current(), nullptr);
  Block block;
  const Published orphan{&block, kBlockFields};  // nothing installed: inert
  block.a = 7;
  CounterRegistry reg;
  const ScopedCounterRegistry scope{reg};
  EXPECT_TRUE(reg.entries().empty());
  EXPECT_EQ(reg.value("a.count"), 0u);
}

TEST(ObsCounters, RegistersAndSnapshotsInNameOrder) {
  CounterRegistry reg;
  const ScopedCounterRegistry scope{reg};
  Block first;
  const Published p1{&first, kBlockFields};
  EXPECT_EQ(reg.entries(), (std::vector<Entry>{{"a.count", 0}, {"b.count", 0}}));
  first.a = 1;
  first.b = 2;
  {
    Block second;
    const Published p2{&second, kBlockFields};
    second.a = 10;
    EXPECT_EQ(reg.value("a.count"), 11u);  // same-named blocks sum
    second.b = 20;                         // last values before destruction
  }
  first.b = 3;
  EXPECT_EQ(reg.value("a.count"), 11u);  // the destroyed block's values stay
  EXPECT_EQ(reg.value("never.published"), 0u);
  // Name order, not table or publication order.
  EXPECT_EQ(reg.entries(), (std::vector<Entry>{{"a.count", 11}, {"b.count", 23}}));
}

TEST(ObsCounters, ScopedInstallNestsAndRestores) {
  ASSERT_EQ(CounterRegistry::current(), nullptr);
  CounterRegistry outer;
  {
    const ScopedCounterRegistry s1{outer};
    EXPECT_EQ(CounterRegistry::current(), &outer);
    CounterRegistry inner;
    {
      const ScopedCounterRegistry s2{inner};
      EXPECT_EQ(CounterRegistry::current(), &inner);
      const Block block{1, 0};
      const Published p{&block, kBlockFields};
    }
    EXPECT_EQ(CounterRegistry::current(), &outer);
    EXPECT_EQ(inner.value("a.count"), 1u);
    EXPECT_EQ(outer.value("a.count"), 0u);
  }
  EXPECT_EQ(CounterRegistry::current(), nullptr);
}

// Trials count in a seed-dependent way. Experiment::run installs a fresh
// registry around every trial on whichever worker thread executes it and
// snapshots it after the trial's blocks are gone, so the counter section of
// the deterministic report must not depend on the thread count.
struct TrialStats {
  std::uint64_t retransmissions = 0;
  std::uint64_t drops = 0;
};
constexpr Field kTrialFields[] = {
    {"selftest.retransmissions", offsetof(TrialStats, retransmissions)},
    {"selftest.drops", offsetof(TrialStats, drops)},
};

exp::Report run_counter_experiment(unsigned jobs) {
  exp::Options o;
  o.bench = "obs_selftest";
  o.reps = 4;
  o.jobs = jobs;
  o.seed_base = 500;
  o.write_json = false;
  exp::Experiment ex{o};
  for (const int cell : {0, 1}) {
    ex.add_cell("cell" + std::to_string(cell), exp::Json::object(),
                [cell](std::uint64_t seed) {
                  sim::Rng rng{seed + static_cast<std::uint64_t>(cell) * 131};
                  TrialStats stats;
                  const Published published{&stats, kTrialFields};
                  const auto n = 50 + rng.uniform_int(0, 50);
                  for (std::int64_t i = 0; i < n; ++i) ++stats.retransmissions;
                  stats.drops += static_cast<std::uint64_t>(rng.uniform_int(0, 9));
                  exp::Metrics m;
                  m.scalar("n", static_cast<double>(n));
                  return m;
                });
  }
  return ex.run();
}

TEST(ObsCounters, ExperimentSnapshotsAreIdenticalAcrossJobCounts) {
  const exp::Report serial = run_counter_experiment(1);
  const exp::Report wide = run_counter_experiment(8);
  EXPECT_EQ(serial.jobs(), 1u);
  EXPECT_EQ(wide.jobs(), 8u);
  EXPECT_EQ(serial.results_json(), wide.results_json());
  // The counters really flowed into the aggregate and into the JSON.
  const auto agg = serial.cell("cell0").counter("selftest.retransmissions");
  EXPECT_EQ(agg.n, 4u);
  EXPECT_GE(agg.min, 50u);
  EXPECT_LE(agg.max, 100u);
  EXPECT_GE(agg.sum, agg.min * 4);
  EXPECT_NE(serial.results_json().find("selftest.retransmissions"), std::string::npos);
}

}  // namespace
}  // namespace son::obs
