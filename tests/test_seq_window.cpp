// SeqWindow, the seq-indexed ring behind the link protocols' sender windows,
// RecvWindow, the receivers' floor over the same ring, and the
// zero-allocation contract they buy the per-message data path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "fake_link.hpp"
#include "overlay/link_protocols.hpp"
#include "overlay/seq_window.hpp"
#include "sim/alloc_probe.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;

std::vector<std::uint64_t> live_seqs(SeqWindow<int>& w) {
  std::vector<std::uint64_t> out;
  for (const auto [seq, v] : w) {
    EXPECT_EQ(v, static_cast<int>(seq) * 10) << "seq " << seq;
    out.push_back(seq);
  }
  return out;
}

// ---- SeqWindow --------------------------------------------------------------

TEST(SeqWindow, PutsAcrossTheRingWrapReuseTheStorage) {
  SeqWindow<int> w;
  for (std::uint64_t s = 1; s <= 6; ++s) w.put(s, static_cast<int>(s) * 10);
  w.erase_through(5);
  // Seqs 7..12 land in the slots 1..6 just vacated, wrapping the ring.
  const std::uint64_t before = sim::alloc_count();
  for (std::uint64_t s = 7; s <= 12; ++s) w.put(s, static_cast<int>(s) * 10);
  EXPECT_EQ(sim::alloc_count() - before, 0u) << "a put within the ring must not allocate";
  EXPECT_EQ(live_seqs(w), (std::vector<std::uint64_t>{6, 7, 8, 9, 10, 11, 12}));
  for (std::uint64_t s = 6; s <= 12; ++s) {
    ASSERT_NE(w.find(s), nullptr) << s;
    EXPECT_EQ(*w.find(s), static_cast<int>(s) * 10);
  }
}

TEST(SeqWindow, GrowsWhileWrapped) {
  SeqWindow<int> w;
  for (std::uint64_t s = 1; s <= 6; ++s) w.put(s, static_cast<int>(s) * 10);
  w.erase_through(4);
  for (std::uint64_t s = 7; s <= 12; ++s) w.put(s, static_cast<int>(s) * 10);
  // [5, 12] fills all eight slots with the front at slot 5; seq 13 needs a
  // ninth, so the ring doubles while its live range wraps.
  for (std::uint64_t s = 13; s <= 40; ++s) w.put(s, static_cast<int>(s) * 10);
  std::vector<std::uint64_t> want;
  for (std::uint64_t s = 5; s <= 40; ++s) want.push_back(s);
  EXPECT_EQ(live_seqs(w), want);
  EXPECT_EQ(w.size(), want.size());
  EXPECT_EQ(w.front().seq, 5u);
}

TEST(SeqWindow, EraseInTheMiddleThenTrimFromTheFront) {
  SeqWindow<int> w;
  for (std::uint64_t s = 1; s <= 10; ++s) w.put(s, static_cast<int>(s) * 10);
  w.erase(4);
  w.erase(5);
  w.erase(5);  // already gone: no-op
  EXPECT_EQ(w.size(), 8u);
  EXPECT_EQ(w.find(4), nullptr);
  EXPECT_EQ(w.front().seq, 1u);
  w.erase(1);
  w.erase(2);
  w.erase(3);
  // The front skips the holes at 4 and 5.
  EXPECT_EQ(w.front().seq, 6u);
  EXPECT_EQ(w.size(), 5u);
  w.erase_through(7);
  EXPECT_EQ(w.front().seq, 8u);
  EXPECT_EQ(live_seqs(w), (std::vector<std::uint64_t>{8, 9, 10}));
}

TEST(SeqWindow, FindOutsideTheRangeIsNull) {
  SeqWindow<int> w;
  EXPECT_EQ(w.find(0), nullptr);
  EXPECT_EQ(w.find(1), nullptr);
  for (std::uint64_t s = 10; s <= 14; ++s) w.put(s, static_cast<int>(s) * 10);
  EXPECT_EQ(w.find(0), nullptr);
  EXPECT_EQ(w.find(9), nullptr);  // below the first seq
  EXPECT_EQ(w.find(15), nullptr);  // above the last
  EXPECT_EQ(w.find(18), nullptr);  // shares seq 10's slot without being stored
  EXPECT_EQ(w.find(std::numeric_limits<std::uint64_t>::max()), nullptr);
  w.erase_through(11);
  EXPECT_EQ(w.find(11), nullptr);
  ASSERT_NE(w.find(12), nullptr);
  EXPECT_EQ(*w.find(12), 120);
  w.erase(std::numeric_limits<std::uint64_t>::max());  // out of range: no-op
  EXPECT_EQ(w.size(), 3u);
}

TEST(SeqWindow, InOrderIterationSkipsHolesAndToleratesErasingTheCurrentEntry) {
  SeqWindow<int> w;
  for (std::uint64_t s = 1; s <= 10; ++s) w.put(s, static_cast<int>(s) * 10);
  w.erase(2);
  w.erase(5);
  w.erase(9);
  EXPECT_EQ(live_seqs(w), (std::vector<std::uint64_t>{1, 3, 4, 6, 7, 8, 10}));
  // Erase every entry below 8 that is odd, from inside the loop.
  for (const auto [seq, v] : w) {
    if (seq >= 8) break;
    if (seq % 2 == 1) w.erase(seq);
  }
  EXPECT_EQ(live_seqs(w), (std::vector<std::uint64_t>{4, 6, 8, 10}));
  // Values are mutable through the iteration entry.
  for (auto [seq, v] : w) v += 1;
  EXPECT_EQ(*w.find(6), 61);
}

TEST(SeqWindow, LiveCountTracksPutsErasesAndRestarts) {
  SeqWindow<int> w;
  EXPECT_TRUE(w.empty());
  w.put(1, 10);
  w.put(5, 50);  // 2..4 are holes
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(live_seqs(w), (std::vector<std::uint64_t>{1, 5}));
  w.erase_through(std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.begin(), w.end());
  // An empty window restarts at whatever seq comes next.
  w.put(1000, 10000);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.front().seq, 1000u);
  EXPECT_EQ(w.find(5), nullptr);
}

// ---- RecvWindow -------------------------------------------------------------

/// A take that passes no entry: the entry is stored, as a seq still in
/// recovery would be.
bool keep(int&) { return false; }

/// Stores seq·10 under `seq` without letting the floor pass it.
void hold(RecvWindow<int>& w, std::uint64_t seq) { w.put(seq, static_cast<int>(seq) * 10, keep); }

/// Advances over every contiguous entry, collecting the seqs passed.
std::vector<std::uint64_t> advance_all(RecvWindow<int>& w) {
  std::vector<std::uint64_t> passed;
  w.advance([&](int& v) {
    passed.push_back(w.floor() + 1);
    EXPECT_EQ(v, static_cast<int>(w.floor() + 1) * 10);
    return true;
  });
  return passed;
}

TEST(RecvWindow, DuplicatesAtOrBelowTheFloorAndInTheRing) {
  RecvWindow<int> w;
  EXPECT_EQ(w.floor(), 0u);
  EXPECT_TRUE(w.empty());
  for (const std::uint64_t s : {1, 2, 5}) hold(w, s);
  EXPECT_EQ(advance_all(w), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(w.floor(), 2u);
  EXPECT_EQ(w.top(), 5u);
  // At or below the floor: done, and no entry.
  EXPECT_EQ(w.find(1), nullptr);
  EXPECT_EQ(w.find(2), nullptr);
  // In the ring: the stored entry answers the duplicate.
  ASSERT_NE(w.find(5), nullptr);
  EXPECT_EQ(*w.find(5), 50);
  EXPECT_EQ(w.find(4), nullptr);
  EXPECT_FALSE(w.empty());
}

TEST(RecvWindow, AnArrivalTakenAtTheFloorIsNeverStored) {
  RecvWindow<int> w;
  hold(w, 3);
  std::vector<int> taken;
  const auto take = [&](int& v) {
    taken.push_back(v);
    return true;
  };
  w.put(1, 10, take);  // passes the floor at once
  EXPECT_EQ(w.floor(), 1u);
  EXPECT_EQ(w.find(1), nullptr);
  w.put(2, 20, take);  // passes it, then advance takes the stored 3
  EXPECT_EQ(taken, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(w.floor(), 3u);
  EXPECT_TRUE(w.empty());
  // A take that refuses stores the arrival, even directly above the floor.
  w.put(4, 40, keep);
  EXPECT_EQ(w.floor(), 3u);
  ASSERT_NE(w.find(4), nullptr);
}

TEST(RecvWindow, AdvancesOverContiguousEntriesAndStopsAtARefusal) {
  RecvWindow<int> w;
  for (const std::uint64_t s : {3, 2, 5, 6}) hold(w, s);
  EXPECT_TRUE(advance_all(w).empty());  // seq 1 is missing
  hold(w, 1);
  EXPECT_EQ(advance_all(w), (std::vector<std::uint64_t>{1, 2, 3}));
  w.put(4, -1, keep);  // an entry the caller refuses to pass (still in recovery)
  std::vector<std::uint64_t> passed;
  w.advance([&](int& v) {
    passed.push_back(w.floor() + 1);
    return v >= 0;
  });
  EXPECT_EQ(passed, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(w.floor(), 3u);
  *w.find(4) = 40;
  EXPECT_EQ(advance_all(w), (std::vector<std::uint64_t>{4, 5, 6}));
  EXPECT_TRUE(w.empty());
}

TEST(RecvWindow, HoleWalkIsAscendingAndCapped) {
  RecvWindow<int> w;
  for (const std::uint64_t s : {12, 3, 7, 8}) hold(w, s);
  std::vector<std::uint64_t> holes;
  w.holes(holes, 64);
  EXPECT_EQ(holes, (std::vector<std::uint64_t>{1, 2, 4, 5, 6, 9, 10, 11}));
  holes.clear();
  w.holes(holes, 3);
  EXPECT_EQ(holes, (std::vector<std::uint64_t>{1, 2, 4}));
  // Nothing above the highest stored seq is a hole, and an empty window has none.
  w.give_up_through(12, [](int&) {});
  holes.clear();
  w.holes(holes, 64);
  EXPECT_TRUE(holes.empty());
}

TEST(RecvWindow, GiveUpHandsOverEntriesInOrderAndCountsTheMissing) {
  RecvWindow<int> w;
  for (const std::uint64_t s : {4, 2, 9, 6}) hold(w, s);
  std::vector<int> handed;
  EXPECT_EQ(w.give_up_through(6, [&](int& v) { handed.push_back(v); }), 3u);  // 1, 3, 5
  EXPECT_EQ(handed, (std::vector<int>{20, 40, 60}));
  EXPECT_EQ(w.floor(), 6u);
  EXPECT_EQ(w.find(9) != nullptr, true);
  EXPECT_EQ(w.give_up_through(5, [](int&) { ADD_FAILURE(); }), 0u);  // below the floor
  EXPECT_EQ(w.floor(), 6u);
  hold(w, 7);
  EXPECT_EQ(advance_all(w), (std::vector<std::uint64_t>{7}));
  // Far past every entry: the walk stops at the ring, not at `seq`.
  EXPECT_EQ(w.give_up_through(1'000'000'000, [](int&) {}), 1'000'000'000u - 7u - 1u);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.floor(), 1'000'000'000u);
  EXPECT_EQ(w.top(), w.floor()) << "the floor passed every stored seq";
}

TEST(RecvWindow, WrapsAndGrowsWhileWrapped) {
  RecvWindow<int> w;
  for (std::uint64_t s = 1; s <= 6; ++s) hold(w, s);
  w.give_up_through(4, [](int&) {});
  // 5 and 6 stay; out-of-order arrivals 12..7 wrap the eight-slot ring.
  std::uint64_t before = sim::alloc_count();
  for (std::uint64_t s = 12; s >= 7; --s) hold(w, s);
  EXPECT_EQ(sim::alloc_count() - before, 0u) << "a put within the ring must not allocate";
  // Seq 20 needs more than eight slots while the live range wraps.
  before = sim::alloc_count();
  for (std::uint64_t s = 20; s >= 14; --s) hold(w, s);
  EXPECT_GT(sim::alloc_count() - before, 0u);
  std::vector<std::uint64_t> holes;
  w.holes(holes, 64);
  EXPECT_EQ(holes, (std::vector<std::uint64_t>{13}));
  hold(w, 13);
  std::vector<std::uint64_t> want;
  for (std::uint64_t s = 5; s <= 20; ++s) want.push_back(s);
  EXPECT_EQ(advance_all(w), want);
}

TEST(RecvWindow, RingIsAnchoredAtTheLowestStoredSeqNotTheFloor) {
  // A far-ahead lone entry, as a rebuilt reorder buffer (floor 0) sees from
  // a long-running flow: a floor-anchored ring would need kMaxRecvSpan slots.
  RecvWindow<int> w;
  hold(w, kMaxRecvSpan);
  EXPECT_TRUE(w.in_span(kMaxRecvSpan));
  EXPECT_FALSE(w.in_span(kMaxRecvSpan + 1));
  // The ring holds eight slots: seven more entries below the anchor fit, and
  // re-anchor it downward, while a ninth makes it grow.
  std::uint64_t before = sim::alloc_count();
  for (std::uint64_t s = kMaxRecvSpan - 1; s >= kMaxRecvSpan - 7; --s) hold(w, s);
  EXPECT_EQ(sim::alloc_count() - before, 0u);
  before = sim::alloc_count();
  hold(w, kMaxRecvSpan - 8);
  EXPECT_GT(sim::alloc_count() - before, 0u);
  for (std::uint64_t s = kMaxRecvSpan - 8; s <= kMaxRecvSpan; ++s) {
    ASSERT_NE(w.find(s), nullptr);
    EXPECT_EQ(*w.find(s), static_cast<int>(s) * 10);
  }
}

// One entry at floor + kMaxRecvSpan (a forged seq, say) must cost nothing
// to the arrivals below it: each passes the floor without entering the ring,
// so the ring is neither re-anchored nor grown, and raising the floor probes
// only the seqs it passes.
TEST(RecvWindow, FarAheadEntryAddsNoWorkToInOrderArrivals) {
  RecvWindow<int> w;
  hold(w, kMaxRecvSpan);
  std::uint64_t taken = 0;
  const auto take = [&](int&) {
    ++taken;
    return true;
  };
  const std::uint64_t before = sim::alloc_count();
  for (std::uint64_t s = 1; s < kMaxRecvSpan - 1; ++s) {
    w.put(s, static_cast<int>(s) * 10, take);
    ASSERT_EQ(w.floor(), s);
  }
  EXPECT_EQ(sim::alloc_count() - before, 0u) << "an in-order arrival re-anchored the ring";
  ASSERT_NE(w.find(kMaxRecvSpan), nullptr);
  // The last arrival below it lets the floor pass it too.
  w.put(kMaxRecvSpan - 1, 0, take);
  EXPECT_EQ(taken, kMaxRecvSpan);
  EXPECT_EQ(w.floor(), kMaxRecvSpan);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(sim::alloc_count() - before, 0u);
}

/// CPU seconds four rounds of reordered arrivals take: pairs of floor + 2,
/// then floor + 1, up to a seq kMaxRecvSpan above the round's first floor,
/// which `far_entry` stores at the start of each round.
double reordered_rounds_cpu_s(bool far_entry) {
  RecvWindow<int> w;
  const auto take = [](int&) { return true; };
  const std::clock_t start = std::clock();
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t far = w.floor() + kMaxRecvSpan;
    if (far_entry) hold(w, far);
    while (w.floor() + 2 < far) {
      const std::uint64_t f = w.floor();
      w.put(f + 2, 0, take);  // stored: f + 1 is missing
      w.put(f + 1, 0, take);  // passes the floor, and so does f + 2
    }
    w.give_up_through(far, [](int&) {});
  }
  return static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
}

// The same with reordered arrivals, which do enter the ring: raising the
// floor over each must not walk the holes up to the far entry (about 2^30
// probes a round), so the far entry leaves the CPU time about as it was.
TEST(RecvWindow, FarAheadEntryAddsNoWorkToReorderedArrivals) {
  const double near = reordered_rounds_cpu_s(false);
  const double far = reordered_rounds_cpu_s(true);
  EXPECT_LT(far, 20 * near + 0.05) << "near " << near << " s, far " << far << " s";
}

// Random puts (including stores the window already holds, checked first as
// every receiver does), duplicate probes, advances with a refusal predicate,
// give-ups and capped hole walks, against the set-and-map receivers the
// window replaced. Now and then a put lands at the edge of the span.
TEST(RecvWindowFuzz, MatchesSetReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng{seed};
    RecvWindow<int> w;
    std::uint64_t ref_floor = 0;
    std::uint64_t ref_top = 0;  // highest seq ever stored
    std::map<std::uint64_t, int> ref;  // entries above the floor
    const auto ref_advance = [&]() {
      for (auto it = ref.begin(); it != ref.end() && it->first == ref_floor + 1 && it->second >= 0;
           it = ref.erase(it)) {
        ++ref_floor;
      }
    };
    const auto passable = [](int& v) { return v >= 0; };
    for (int step = 0; step < 4000; ++step) {
      const double dice = rng.uniform();
      // Mostly near the floor, sometimes far enough to grow the ring, and
      // rarely at the edge of the span.
      const double far = rng.uniform();
      const std::uint64_t seq =
          far < 0.005 ? ref_floor + kMaxRecvSpan
                      : ref_floor + 1 +
                            static_cast<std::uint64_t>(rng.uniform_int(0, far < 0.05 ? 999 : 39));
      if (dice < 0.45) {
        // A store, or a duplicate of one the window already holds.
        const bool dup = ref.contains(seq);
        ASSERT_EQ(w.find(seq) != nullptr, dup) << "seed " << seed << " step " << step;
        if (!dup) {
          const int v = rng.uniform() < 0.2 ? -static_cast<int>(seq) : static_cast<int>(seq);
          w.put(seq, v, passable);
          ref.emplace(seq, v);
          ref_top = std::max(ref_top, seq);
          ref_advance();
        }
      } else if (dice < 0.55) {
        // A duplicate at or below the floor.
        const std::uint64_t low =
            static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(ref_floor)));
        ASSERT_EQ(w.find(low), nullptr);
      } else if (dice < 0.75) {
        // Release a refused entry, then advance over passable ones.
        if (!ref.empty() && ref.begin()->second < 0 && rng.uniform() < 0.5) {
          const std::uint64_t s = ref.begin()->first;
          ref.begin()->second = static_cast<int>(s);
          *w.find(s) = static_cast<int>(s);
        }
        w.advance(passable);
        ref_advance();
      } else if (dice < 0.85) {
        const std::uint64_t through = ref_floor + static_cast<std::uint64_t>(rng.uniform_int(0, 60));
        std::vector<int> handed;
        const std::uint64_t missing = w.give_up_through(through, [&](int& v) { handed.push_back(v); });
        std::vector<int> ref_handed;
        std::uint64_t ref_missing = through > ref_floor ? through - ref_floor : 0;
        while (!ref.empty() && ref.begin()->first <= through) {
          ref_handed.push_back(ref.begin()->second);
          ref.erase(ref.begin());
          --ref_missing;
        }
        ref_floor = std::max(ref_floor, through);
        ASSERT_EQ(handed, ref_handed) << "seed " << seed << " step " << step;
        ASSERT_EQ(missing, ref_missing) << "seed " << seed << " step " << step;
      } else {
        const auto cap = static_cast<std::size_t>(rng.uniform_int(1, 70));
        std::vector<std::uint64_t> holes;
        w.holes(holes, cap);
        std::vector<std::uint64_t> ref_holes;
        const std::uint64_t top = ref.empty() ? ref_floor : ref.rbegin()->first;
        for (std::uint64_t s = ref_floor + 1; s < top && ref_holes.size() < cap; ++s) {
          if (!ref.contains(s)) ref_holes.push_back(s);
        }
        ASSERT_EQ(holes, ref_holes) << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(w.floor(), ref_floor) << "seed " << seed << " step " << step;
      ASSERT_EQ(w.empty(), ref.empty()) << "seed " << seed << " step " << step;
      ASSERT_EQ(w.top(), std::max(ref_floor, ref_top)) << "seed " << seed << " step " << step;
    }
    for (const auto& [s, v] : ref) {
      ASSERT_NE(w.find(s), nullptr);
      ASSERT_EQ(*w.find(s), v);
    }
  }
}

// ---- Zero allocation on the per-message link-protocol path ------------------

/// Hands each frame straight to the peer endpoint's on_frame, inside the
/// sender's call. FakeLinkPair cannot drive an allocation probe: it delays
/// each frame with an event whose closure captures the whole LinkFrame,
/// which is larger than Callback's inline buffer and so goes to the heap.
/// With `hold_every` = k, every k-th first transmission (kData) is held back
/// and handed over right after the next frame, so the peer receives it out
/// of order and notes the gap it left; nothing is lost, so no ack carries a
/// nack list (whose vector would allocate).
class DirectLink final : public LinkContext {
 public:
  DirectLink(sim::Simulator& sim, NodeId self, NodeId peer, int hold_every = 0)
      : sim_{sim}, rng_{7}, self_{self}, peer_{peer}, hold_every_{hold_every} {}

  void connect(LinkProtocolEndpoint* peer_endpoint) { peer_endpoint_ = peer_endpoint; }

  sim::Simulator& simulator() override { return sim_; }
  sim::Rng& rng() override { return rng_; }
  void send_frame(LinkFrame frame) override {
    if (hold_every_ > 0 && frame.type == FrameType::kData && ++data_frames_ % hold_every_ == 0) {
      held_ = std::move(frame);
      return;
    }
    peer_endpoint_->on_frame(frame);
    if (held_) ++reordered;
    flush();
  }
  /// Hands over a held-back frame now.
  void flush() {
    if (held_) {
      peer_endpoint_->on_frame(*held_);
      held_.reset();
    }
  }
  bool deliver_up(Message, LinkBit) override {
    ++delivered;
    return true;
  }
  [[nodiscard]] sim::Duration rtt_estimate() const override { return 10_ms; }
  [[nodiscard]] NodeId self() const override { return self_; }
  [[nodiscard]] NodeId peer() const override { return peer_; }
  [[nodiscard]] LinkBit link() const override { return 0; }
  void count_protocol_drop(LinkProtocol) override {}

  std::uint64_t delivered = 0;
  std::uint64_t reordered = 0;  // held frames handed over after a successor

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  NodeId self_;
  NodeId peer_;
  int hold_every_;
  std::uint64_t data_frames_ = 0;
  std::optional<LinkFrame> held_;
  LinkProtocolEndpoint* peer_endpoint_ = nullptr;
};

struct AllocRun {
  std::uint64_t allocs = 0;
  std::uint64_t delivered = 0;
  std::uint64_t reordered = 0;  // out-of-order arrivals in the counted stretch
};

/// One message per simulated millisecond from a to b, acks and timers
/// included. Warms up past the realtime sender's 2 s history (the largest
/// window here), then counts allocations over `sends` more messages. With
/// `hold_every` > 0, a's link reorders as DirectLink describes.
AllocRun run_in_order(LinkProtocol proto, int sends, int hold_every = 0) {
  sim::Simulator sim;
  DirectLink a{sim, 0, 1, hold_every};
  DirectLink b{sim, 1, 0};
  const LinkProtocolConfig cfg;
  const auto ea = make_link_endpoint(proto, a, cfg);
  const auto eb = make_link_endpoint(proto, b, cfg);
  a.connect(eb.get());
  b.connect(ea.get());
  // One shared payload: copies of `m` bump a refcount and allocate nothing.
  const Message m = test::make_msg(1, sim.now());
  const auto step = [&]() {
    sim.run_for(1_ms);
    ea->send(m);
  };
  // Drains acks and pacing, then hands over a frame still held back.
  const auto settle = [&]() {
    sim.run_for(1_s);
    a.flush();
  };
  for (int i = 0; i < 5000; ++i) step();
  settle();
  const std::uint64_t before = sim::alloc_count();
  const std::uint64_t delivered_before = b.delivered;
  const std::uint64_t reordered_before = a.reordered;
  for (int i = 0; i < sends; ++i) step();
  settle();
  return AllocRun{sim::alloc_count() - before, b.delivered - delivered_before,
                  a.reordered - reordered_before};
}

TEST(LinkProtocolAlloc, RealtimeSimpleSendsAreAllocationFree) {
  const AllocRun r = run_in_order(LinkProtocol::kRealtimeSimple, 100'000);
  EXPECT_EQ(r.delivered, 100'000u);
  EXPECT_EQ(r.allocs, 0u) << "sender history or receiver seen-set allocated per message";
}

TEST(LinkProtocolAlloc, ReliableSendsAndAcksAreAllocationFree) {
  const AllocRun r = run_in_order(LinkProtocol::kReliable, 100'000);
  EXPECT_EQ(r.delivered, 100'000u);
  EXPECT_EQ(r.allocs, 0u) << "unacked window or ack path allocated per message";
}

// IT-Reliable sends pass through the fair scheduler, whose per-key queue is
// created and dropped per message while the link is idle; that cost is the
// scheduler's, not the window's. IT-Priority runs the same scheduler with no
// in-flight window and no acks, so equal counts pin IT-Reliable's window,
// ack and retransmission bookkeeping at zero allocations per message.
TEST(LinkProtocolAlloc, ItReliableWindowAndAcksAddNoAllocations) {
  const AllocRun reliable = run_in_order(LinkProtocol::kITReliable, 100'000);
  const AllocRun priority = run_in_order(LinkProtocol::kITPriority, 100'000);
  EXPECT_EQ(reliable.delivered, 100'000u);
  EXPECT_EQ(priority.delivered, 100'000u);
  EXPECT_EQ(reliable.allocs, priority.allocs)
      << "in-flight window or ack path allocated per message";
}

// Every 7th first transmission arrives after its successor. The receivers'
// windows hold each such arrival in their ring, which the warm-up has grown,
// so the Reliable receiver allocates nothing and IT-Reliable adds nothing to
// IT-Priority's scheduler churn. A realtime receiver notes each reordered
// seq as a gap before it arrives: the gap's timer-id list is its one
// allocation.
TEST(LinkProtocolAlloc, OutOfOrderArrivalsAllocateNothing) {
  constexpr int kSends = 100'000;
  const AllocRun reliable = run_in_order(LinkProtocol::kReliable, kSends, 7);
  EXPECT_EQ(reliable.delivered, static_cast<std::uint64_t>(kSends));
  EXPECT_GT(reliable.reordered, 0u);
  EXPECT_EQ(reliable.allocs, 0u) << "receive window allocated per out-of-order arrival";

  const AllocRun it_reliable = run_in_order(LinkProtocol::kITReliable, kSends, 7);
  const AllocRun it_priority = run_in_order(LinkProtocol::kITPriority, kSends, 7);
  EXPECT_EQ(it_reliable.delivered, static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(it_priority.delivered, static_cast<std::uint64_t>(kSends));
  EXPECT_GT(it_reliable.reordered, 0u);
  EXPECT_EQ(it_reliable.allocs, it_priority.allocs)
      << "receive window allocated per out-of-order arrival";

  const AllocRun realtime = run_in_order(LinkProtocol::kRealtimeSimple, kSends, 7);
  EXPECT_EQ(realtime.delivered, static_cast<std::uint64_t>(kSends));
  EXPECT_GT(realtime.reordered, 0u);
  EXPECT_EQ(realtime.allocs, realtime.reordered) << "expected one allocation per noted gap";
}

}  // namespace
}  // namespace son::overlay
