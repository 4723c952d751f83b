// SeqWindow, the seq-indexed ring behind the link protocols' sender windows,
// and the zero-allocation contract it buys the per-message data path.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "fake_link.hpp"
#include "overlay/link_protocols.hpp"
#include "overlay/seq_window.hpp"
#include "sim/alloc_probe.hpp"
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

// ---- Zero allocation on the per-message link-protocol path ------------------

/// Hands each frame straight to the peer endpoint's on_frame, inside the
/// sender's call. FakeLinkPair cannot drive an allocation probe: it delays
/// each frame with an event whose closure captures the whole LinkFrame,
/// which is larger than Callback's inline buffer and so goes to the heap.
class DirectLink final : public LinkContext {
 public:
  DirectLink(sim::Simulator& sim, NodeId self, NodeId peer)
      : sim_{sim}, rng_{7}, self_{self}, peer_{peer} {}

  void connect(LinkProtocolEndpoint* peer_endpoint) { peer_endpoint_ = peer_endpoint; }

  sim::Simulator& simulator() override { return sim_; }
  sim::Rng& rng() override { return rng_; }
  void send_frame(LinkFrame frame) override { peer_endpoint_->on_frame(frame); }
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

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  NodeId self_;
  NodeId peer_;
  LinkProtocolEndpoint* peer_endpoint_ = nullptr;
};

struct AllocRun {
  std::uint64_t allocs = 0;
  std::uint64_t delivered = 0;
};

/// One message per simulated millisecond from a to b, acks and timers
/// included. Warms up past the realtime sender's 2 s history (the largest
/// window here), then counts allocations over `sends` more messages.
AllocRun run_in_order(LinkProtocol proto, int sends) {
  sim::Simulator sim;
  DirectLink a{sim, 0, 1};
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
  for (int i = 0; i < 5000; ++i) step();
  sim.run_for(1_s);  // drain acks and pacing
  const std::uint64_t before = sim::alloc_count();
  const std::uint64_t delivered_before = b.delivered;
  for (int i = 0; i < sends; ++i) step();
  sim.run_for(1_s);
  return AllocRun{sim::alloc_count() - before, b.delivered - delivered_before};
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

}  // namespace
}  // namespace son::overlay
