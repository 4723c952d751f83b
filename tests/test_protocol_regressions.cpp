// Regression tests for protocol-timer bugs: each test pins the corrected
// behavior and fails against the pre-fix implementation.
//
//  - ReorderBuffer armed its skip timer from the LOWEST-seq held entry, not
//    the longest-waiting one, so a late low-seq retransmission pushed the
//    effective hold deadline of everything already waiting.
//  - ReliableLinkEndpoint re-armed its retransmit timer a full rto() from
//    "now", so an entry could wait up to ~2x its timeout behind the sweep;
//    retransmissions to a dead peer also repeated at a constant rate forever.
//  - send_ack() enumerated every hole below recv_max_ with no cap, producing
//    unbounded nack lists (and an O(window) scan) after a burst loss.
//  - DedupCache probed its hash set twice per message on the hot path.
//  - RealtimeEndpointBase dropped every burst-timer id once it held 65,536,
//    including bursts scheduled moments earlier, so an endpoint reset
//    mid-run left this-capturing closures to run on freed memory.
//  - A realtime gap's expiry raised the receive floor to its seq, so a gap
//    that expired early (its trigger had little deadline left) jumped the
//    floor over an earlier gap still in recovery, whose retransmission was
//    then dropped as a duplicate.
#include <gtest/gtest.h>

#include <set>

#include "fake_link.hpp"
#include "net/loss_model.hpp"
#include "overlay/dedup.hpp"
#include "overlay/realtime.hpp"
#include "overlay/reliable_link.hpp"
#include "overlay/reorder_buffer.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;
using son::test::FakeLinkPair;
using son::test::make_msg;

// ---- ReorderBuffer hold deadline -------------------------------------------

TEST(ReorderBufferBugfix, SkipDeadlineFollowsOldestArrivalNotLowestSeq) {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, std::int64_t>> delivered;
  ReorderBuffer buf{sim, 200_ms, [&](const Message& m) {
                      delivered.emplace_back(m.hdr.flow_seq, sim.now().ns());
                    }};
  Message m5;
  m5.hdr.flow_seq = 5;
  buf.push(m5);  // t=0: held behind the gap 1..4
  sim.schedule(190_ms, [&buf]() {
    Message m2;
    m2.hdr.flow_seq = 2;
    buf.push(m2);  // late low-seq arrival, 10ms before seq 5's deadline
  });

  sim.run_for(199_ms);
  EXPECT_TRUE(delivered.empty());

  // Seq 5 has waited max_hold at t=200ms: the buffer must give up on the
  // gaps below it THEN, delivering 2 and 5 in order. The buggy version
  // re-derived the deadline from the lowest held seq (2, arrived t=190ms)
  // and sat on both messages until t=390ms.
  sim.run_for(2_ms);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].first, 2u);
  EXPECT_EQ(delivered[1].first, 5u);
  EXPECT_EQ(delivered[0].second, 200'000'000);
  EXPECT_EQ(delivered[1].second, 200'000'000);
  EXPECT_EQ(buf.stats().skipped_missing, 3u);  // 1, 3, 4
}

// ---- Reliable link: RTO timing ---------------------------------------------

struct ProtoFixture {
  Simulator sim;
  FakeLinkPair pair;
  std::unique_ptr<LinkProtocolEndpoint> a;
  std::unique_ptr<LinkProtocolEndpoint> b;

  ProtoFixture(LinkProtocol proto, Duration one_way, double loss,
               LinkProtocolConfig cfg = {}, std::uint64_t seed = 99)
      : pair{sim, one_way, loss, seed} {
    a = make_link_endpoint(proto, pair.ctx_a(), cfg);
    b = make_link_endpoint(proto, pair.ctx_b(), cfg);
    pair.attach(a.get(), b.get());
  }

  [[nodiscard]] ReliableLinkEndpoint& reliable_a() {
    auto* rl = dynamic_cast<ReliableLinkEndpoint*>(a.get());
    EXPECT_NE(rl, nullptr);
    return *rl;
  }
};

/// Drops every frame transmitted before `until`.
class LossUntil final : public net::LossModel {
 public:
  explicit LossUntil(sim::TimePoint until) : until_{until} {}
  bool lose(sim::TimePoint now, sim::Rng&) override { return now < until_; }
  [[nodiscard]] double average_loss_rate() const override { return 0.0; }

 private:
  sim::TimePoint until_;
};

TEST(ReliableBugfix, RtoHonorsEachEntrysOwnDeadline) {
  // One-way 5ms -> RTO 20ms. Both packets are lost on the first pass; the
  // outage ends before either timeout expires.
  ProtoFixture f{LinkProtocol::kReliable, 5_ms, 0.0, {}, 21};
  f.pair.set_loss_a_to_b(std::make_unique<LossUntil>(sim::TimePoint::from_ns(10'000'000)));

  f.a->send(make_msg(1, f.sim.now()));
  f.sim.schedule(1_ms, [&f]() { f.a->send(make_msg(2, f.sim.now())); });

  // Packet 1 times out at t=20ms, packet 2 at t=21ms; the retransmissions
  // arrive by t=26ms. The buggy sweep re-armed a full RTO from its own fire
  // time, so packet 2 (19ms old at the t=20ms sweep) was skipped and only
  // retransmitted at t=40ms.
  f.sim.run_for(28_ms);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 2u);
  EXPECT_EQ(f.reliable_a().stats().retransmissions, 2u);
}

TEST(ReliableBugfix, BackoffBoundsRetransmissionsToDeadPeer) {
  // Blackholed link: nothing in either direction. Per-entry exponential
  // backoff (20ms doubling, capped at 2s) probes ~10 times in 10s. The
  // pre-fix sender retransmitted every RTO forever: ~500 sends.
  ProtoFixture f{LinkProtocol::kReliable, 5_ms, 1.0, {}, 22};
  f.a->send(make_msg(1, f.sim.now()));
  f.sim.run_for(10_s);
  EXPECT_EQ(f.reliable_a().stats().data_sent, 1u);
  EXPECT_GE(f.reliable_a().stats().retransmissions, 8u);
  EXPECT_LE(f.reliable_a().stats().retransmissions, 14u);
}

TEST(ReliableBugfix, SackStopsRtoForPacketsHeldBeyondAHole) {
  // Lose exactly the first data frame. Seqs 2..5 reach the peer but stay
  // uncovered by the cumulative ack until seq 1 is recovered. The ack's
  // exhaustive nack list proves they arrived, so the sender must retire
  // them instead of firing their RTOs (the pre-fix sender retransmitted
  // all four as duplicates).
  class FirstFrameLoss final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override { return std::exchange(first_, false); }
    [[nodiscard]] double average_loss_rate() const override { return 0.0; }

   private:
    bool first_ = true;
  };
  ProtoFixture f{LinkProtocol::kReliable, 5_ms, 0.0, {}, 23};
  f.pair.set_loss_a_to_b(std::make_unique<FirstFrameLoss>());

  for (std::uint64_t s = 1; s <= 5; ++s) f.a->send(make_msg(s, f.sim.now()));
  f.sim.run_for(5_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 5u);
  EXPECT_EQ(f.reliable_a().stats().retransmissions, 1u);  // seq 1 only
  EXPECT_EQ(f.reliable_a().stats().sacked, 4u);           // 2..5 retired early
  auto* rb = dynamic_cast<ReliableLinkEndpoint*>(f.b.get());
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(rb->stats().duplicates_received, 0u);
}

// ---- Reliable link: nack enumeration ---------------------------------------

/// LinkContext that records outgoing frames instead of transmitting them.
class CaptureCtx final : public LinkContext {
 public:
  explicit CaptureCtx(Simulator& sim) : sim_{sim} {}

  Simulator& simulator() override { return sim_; }
  sim::Rng& rng() override { return rng_; }
  void send_frame(LinkFrame f) override { sent.push_back(std::move(f)); }
  bool deliver_up(Message, LinkBit) override { return true; }
  [[nodiscard]] Duration rtt_estimate() const override { return 10_ms; }
  [[nodiscard]] NodeId self() const override { return 1; }
  [[nodiscard]] NodeId peer() const override { return 0; }
  [[nodiscard]] LinkBit link() const override { return 0; }
  void count_protocol_drop(LinkProtocol) override {}

  std::vector<LinkFrame> sent;

 private:
  Simulator& sim_;
  sim::Rng rng_{1};
};

LinkFrame data_frame(std::uint64_t seq, sim::TimePoint now) {
  LinkFrame df;
  df.link = 0;
  df.from = 0;
  df.to = 1;
  df.proto = LinkProtocol::kReliable;
  df.type = FrameType::kData;
  df.seq = seq;
  df.msg = make_msg(seq, now);
  return df;
}

TEST(ReliableBugfix, NackListWalksGapsAndIsCapped) {
  Simulator sim;
  CaptureCtx ctx{sim};
  ReliableLinkEndpoint ep{ctx, {}};

  // A huge reordering gap: seqs 201..300 arrive, 1..200 are missing. The
  // pre-fix ack enumerated all 200 holes into one frame.
  for (std::uint64_t s = 201; s <= 300; ++s) ep.on_frame(data_frame(s, sim.now()));
  sim.run_for(5_ms);  // let the delayed ack fire

  ASSERT_EQ(ctx.sent.size(), 1u);
  const LinkFrame& ack = ctx.sent[0];
  EXPECT_EQ(ack.type, FrameType::kAck);
  EXPECT_EQ(ack.cum_ack, 0u);
  EXPECT_EQ(ack.seq, 300u);  // highest seen, for SACK inference
  ASSERT_EQ(ack.ids.size(), 64u);  // capped, lowest holes first
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(ack.ids[i], i + 1);
}

TEST(ReliableBugfix, NackListIsExactForSmallGaps) {
  Simulator sim;
  CaptureCtx ctx{sim};
  ReliableLinkEndpoint ep{ctx, {}};

  for (std::uint64_t s = 1; s <= 15; ++s) {
    if (s == 5 || s == 10) continue;
    ep.on_frame(data_frame(s, sim.now()));
  }
  sim.run_for(5_ms);

  ASSERT_EQ(ctx.sent.size(), 1u);
  const LinkFrame& ack = ctx.sent[0];
  EXPECT_EQ(ack.cum_ack, 4u);
  EXPECT_EQ(ack.seq, 15u);
  EXPECT_EQ(ack.ids, (std::vector<std::uint64_t>{5, 10}));
}

/// Drops a→b frames by transmission index (1-based).
class DropFrameRange final : public net::LossModel {
 public:
  DropFrameRange(std::uint64_t first, std::uint64_t last) : first_{first}, last_{last} {}
  bool lose(sim::TimePoint, sim::Rng&) override {
    const std::uint64_t i = ++count_;
    return i >= first_ && i <= last_;
  }
  [[nodiscard]] double average_loss_rate() const override { return 0.0; }

 private:
  std::uint64_t first_, last_, count_ = 0;
};

TEST(ReliableBugfix, BurstLossRecoversThroughSuccessiveCappedNacks) {
  // 150 consecutive losses: far more holes than one capped ack can carry.
  // Recovery must complete across several ack rounds, each nacking the 64
  // lowest outstanding holes.
  ProtoFixture f{LinkProtocol::kReliable, 5_ms, 0.0, {}, 24};
  f.pair.set_loss_a_to_b(std::make_unique<DropFrameRange>(10, 159));

  const std::uint64_t n = 300;
  for (std::uint64_t s = 1; s <= n; ++s) f.a->send(make_msg(s, f.sim.now()));
  f.sim.run_for(10_s);

  std::set<std::uint64_t> seqs;
  for (const auto& m : f.pair.ctx_b().delivered) {
    EXPECT_TRUE(seqs.insert(m.hdr.flow_seq).second) << "duplicate " << m.hdr.flow_seq;
  }
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(n));
  EXPECT_GE(f.reliable_a().stats().retransmissions, 150u);  // every loss recovered
}

// ---- DedupCache ------------------------------------------------------------

TEST(DedupBugfix, EvictionAccountingAndReadmission) {
  DedupCache d{4};
  for (std::uint64_t id = 1; id <= 4; ++id) EXPECT_FALSE(d.seen_or_insert(id));
  EXPECT_TRUE(d.seen_or_insert(1));  // still resident: no insertion
  EXPECT_EQ(d.evictions(), 0u);
  EXPECT_FALSE(d.seen_or_insert(5));  // pushes 1 out
  EXPECT_EQ(d.evictions(), 1u);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_FALSE(d.seen_or_insert(1));  // evicted id is readmitted as new
  EXPECT_EQ(d.evictions(), 2u);       // ...displacing 2
}

// ---- Realtime burst timers ---------------------------------------------------

TEST(RealtimeBugfix, ResetEndpointCancelsEveryPendingBurst) {
  Simulator sim;
  FakeLinkPair pair{sim, 5_ms, 0.0};
  auto a = std::make_unique<RealtimeSimpleEndpoint>(pair.ctx_a(), LinkProtocolConfig{});
  pair.attach(a.get(), nullptr);  // frames to b are counted, then dropped

  // One more burst id than the endpoint used to keep: the request below
  // schedules a retransmission for every seq, all due now.
  constexpr std::uint64_t kSends = 65537;
  LinkFrame request;
  request.type = FrameType::kRetransRequest;
  for (std::uint64_t s = 1; s <= kSends; ++s) {
    a->send(make_msg(s, sim.now()));
    request.ids.push_back(s);
  }
  a->on_frame(request);
  a->send(make_msg(kSends + 1, sim.now()));  // prunes the burst-id list

  // A peer restart resets the endpoint before its bursts fire. The destructor
  // must cancel all of them: a surviving burst runs on the freed endpoint
  // (ASan: heap-use-after-free) and sends a retransmission through it.
  const std::uint64_t frames_before = pair.frames_sent();
  a.reset();
  sim.run();
  EXPECT_EQ(pair.frames_sent(), frames_before);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(RealtimeBugfix, GapExpiryGivesUpOnlyThatSeq) {
  Simulator sim;
  FakeLinkPair pair{sim, 10_ms, 0.0};  // rtt estimate 20 ms
  auto b = std::make_unique<RealtimeSimpleEndpoint>(pair.ctx_b(), LinkProtocolConfig{});
  pair.attach(nullptr, b.get());  // b's requests go nowhere
  const sim::TimePoint t0 = sim.now();
  const auto frame = [&](std::uint64_t seq, FrameType type, Duration deadline) {
    LinkFrame f;
    f.from = 0;
    f.to = 1;
    f.proto = LinkProtocol::kRealtimeSimple;
    f.type = type;
    f.seq = seq;
    f.msg = make_msg(seq, t0);
    f.msg->hdr.deadline = deadline;
    return f;
  };
  // Seq 3 reveals gap 2 with 500 ms left (expires at ~520 ms); seq 5
  // reveals gap 4 with 20 ms left (expires at ~40 ms).
  b->on_frame(frame(1, FrameType::kData, 500_ms));
  b->on_frame(frame(3, FrameType::kData, 500_ms));
  b->on_frame(frame(5, FrameType::kData, 20_ms));
  sim.run_for(100_ms);
  EXPECT_EQ(b->stats().expired_unrecovered, 1u);  // gap 4 only

  // Gap 2 is still in recovery: its retransmission is delivered.
  b->on_frame(frame(2, FrameType::kRetransmission, 500_ms));
  EXPECT_EQ(b->stats().recovered, 1u);
  EXPECT_EQ(b->stats().duplicates, 0u);
  ASSERT_EQ(pair.ctx_b().delivered.size(), 4u);
  EXPECT_EQ(pair.ctx_b().delivered.back().hdr.flow_seq, 2u);
}

}  // namespace
}  // namespace son::overlay
