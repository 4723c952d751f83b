#include <gtest/gtest.h>

#include "fake_link.hpp"
#include "overlay/it_fair.hpp"
#include "overlay/realtime.hpp"
#include "overlay/reliable_link.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;
using son::test::FakeLinkPair;
using son::test::make_msg;

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
};

// ---- Best effort ---------------------------------------------------------

TEST(BestEffort, DeliversWithoutLoss) {
  ProtoFixture f{LinkProtocol::kBestEffort, 5_ms, 0.0};
  for (std::uint64_t i = 1; i <= 10; ++i) f.a->send(make_msg(i, f.sim.now()));
  f.sim.run();
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 10u);
}

TEST(BestEffort, LossIsFinal) {
  ProtoFixture f{LinkProtocol::kBestEffort, 5_ms, 0.5, {}, 7};
  for (std::uint64_t i = 1; i <= 1000; ++i) f.a->send(make_msg(i, f.sim.now()));
  f.sim.run();
  const auto got = f.pair.ctx_b().delivered.size();
  EXPECT_GT(got, 400u);
  EXPECT_LT(got, 600u);  // nothing recovered
}

// ---- Reliable data link ---------------------------------------------------

TEST(Reliable, EverythingDeliveredUnderHeavyLoss) {
  ProtoFixture f{LinkProtocol::kReliable, 5_ms, 0.2, {}, 11};
  const int n = 500;
  for (int i = 1; i <= n; ++i) {
    f.sim.schedule(Duration::milliseconds(i), [&f, i]() {
      f.a->send(make_msg(static_cast<std::uint64_t>(i), f.sim.now()));
    });
  }
  f.sim.run_for(20_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), static_cast<std::size_t>(n));
}

TEST(Reliable, NoDuplicateDeliveries) {
  ProtoFixture f{LinkProtocol::kReliable, 5_ms, 0.3, {}, 12};
  const int n = 300;
  for (int i = 1; i <= n; ++i) {
    f.sim.schedule(Duration::milliseconds(i * 2), [&f, i]() {
      f.a->send(make_msg(static_cast<std::uint64_t>(i), f.sim.now()));
    });
  }
  f.sim.run_for(30_s);
  std::set<std::uint64_t> seqs;
  for (const auto& m : f.pair.ctx_b().delivered) {
    EXPECT_TRUE(seqs.insert(m.hdr.flow_seq).second) << "duplicate " << m.hdr.flow_seq;
  }
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(n));
}

TEST(Reliable, OutOfOrderForwardingImmediate) {
  // Drop exactly the first data frame; later frames must still be handed up
  // on first arrival (before the retransmission fills the gap).
  ProtoFixture f{LinkProtocol::kReliable, 5_ms, 0.0, {}, 13};

  // Scripted loss: lose the first a->b frame only.
  class FirstFrameLoss final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override { return std::exchange(first_, false); }
    [[nodiscard]] double average_loss_rate() const override { return 0.0; }

   private:
    bool first_ = true;
  };
  f.pair.set_loss_a_to_b(std::make_unique<FirstFrameLoss>());

  f.a->send(make_msg(1, f.sim.now()));
  f.a->send(make_msg(2, f.sim.now()));
  f.sim.run_for(6_ms);
  // Seq 2 arrived and must already be delivered although seq 1 is missing.
  ASSERT_EQ(f.pair.ctx_b().delivered.size(), 1u);
  EXPECT_EQ(f.pair.ctx_b().delivered[0].hdr.flow_seq, 2u);
  f.sim.run_for(5_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 2u);
}

TEST(Reliable, WindowOverflowShedsWithAccounting) {
  LinkProtocolConfig cfg;
  cfg.reliable_window = 8;
  // 100% loss: nothing is ever acked, the window jams.
  ProtoFixture f{LinkProtocol::kReliable, 5_ms, 1.0, cfg, 14};
  for (int i = 1; i <= 20; ++i) f.a->send(make_msg(static_cast<std::uint64_t>(i), f.sim.now()));
  EXPECT_EQ(f.pair.ctx_a().protocol_drops, 12u);
}

TEST(Reliable, RetransmissionCountReasonable) {
  ProtoFixture f{LinkProtocol::kReliable, 5_ms, 0.1, {}, 15};
  const int n = 1000;
  for (int i = 1; i <= n; ++i) {
    f.sim.schedule(Duration::milliseconds(i), [&f, i]() {
      f.a->send(make_msg(static_cast<std::uint64_t>(i), f.sim.now()));
    });
  }
  f.sim.run_for(30_s);
  auto* rl = dynamic_cast<ReliableLinkEndpoint*>(f.a.get());
  ASSERT_NE(rl, nullptr);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), static_cast<std::size_t>(n));
  // ~10% loss: expect roughly n*0.11 retransmissions, far below n.
  EXPECT_LT(rl->stats().retransmissions, static_cast<std::uint64_t>(n / 2));
  EXPECT_GT(rl->stats().retransmissions, static_cast<std::uint64_t>(n / 20));
}

// ---- Realtime (simple and NM-Strikes) ----------------------------------------

Message rt_msg(std::uint64_t seq, sim::TimePoint now, Duration deadline, std::uint8_t n_req,
               std::uint8_t m_ret) {
  Message m = make_msg(seq, now);
  m.hdr.deadline = deadline;
  m.hdr.nm_requests = n_req;
  m.hdr.nm_retransmissions = m_ret;
  return m;
}

TEST(RealtimeSimple, RecoversIsolatedLossWithOneRequest) {
  ProtoFixture f{LinkProtocol::kRealtimeSimple, 5_ms, 0.0, {}, 16};
  class DropSecond final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override { return ++count_ == 2; }
    [[nodiscard]] double average_loss_rate() const override { return 0.0; }

   private:
    int count_ = 0;
  };
  f.pair.set_loss_a_to_b(std::make_unique<DropSecond>());
  for (int i = 1; i <= 5; ++i) {
    f.sim.schedule(Duration::milliseconds(i * 10), [&f, i]() {
      f.a->send(rt_msg(static_cast<std::uint64_t>(i), f.sim.now(), 100_ms, 1, 1));
    });
  }
  f.sim.run_for(1_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 5u);
  auto* rt = dynamic_cast<RealtimeEndpointBase*>(f.b.get());
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->stats().requests_sent, 1u);
  EXPECT_EQ(rt->stats().recovered, 1u);
}

TEST(RealtimeSimple, GivesUpAfterBudget) {
  // Total a->b loss: data and retransmissions all die; receiver learns about
  // seq 1 only via... nothing arrives at all, so no gap is ever detected.
  // Instead drop only seq 2 and the recovery attempt.
  ProtoFixture f{LinkProtocol::kRealtimeSimple, 5_ms, 0.0, {}, 17};
  class DropSecondAndRetrans final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override {
      ++count_;
      return count_ == 2 || count_ >= 4;  // seq2, then every retransmission
    }
    [[nodiscard]] double average_loss_rate() const override { return 0.0; }

   private:
    int count_ = 0;
  };
  f.pair.set_loss_a_to_b(std::make_unique<DropSecondAndRetrans>());
  for (int i = 1; i <= 3; ++i) {
    f.sim.schedule(Duration::milliseconds(i * 10), [&f, i]() {
      f.a->send(rt_msg(static_cast<std::uint64_t>(i), f.sim.now(), 50_ms, 1, 1));
    });
  }
  f.sim.run_for(2_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 2u);
  auto* rt = dynamic_cast<RealtimeEndpointBase*>(f.b.get());
  EXPECT_EQ(rt->stats().expired_unrecovered, 1u);
  // Exactly one request in simple mode, never more.
  EXPECT_EQ(rt->stats().requests_sent, 1u);
}

TEST(RealtimeNM, SchedulesNRequestsAndMRetransmissions) {
  ProtoFixture f{LinkProtocol::kRealtimeNM, 5_ms, 0.0, {}, 18};
  class DropFirstData final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override { return std::exchange(first_, false); }
    [[nodiscard]] double average_loss_rate() const override { return 0.0; }

   private:
    bool first_ = true;
  };
  f.pair.set_loss_a_to_b(std::make_unique<DropFirstData>());
  // Requests also get lost? No — b->a is clean; but the retransmissions flow
  // a->b cleanly after the first loss, so recovery happens on request 1,
  // response 1; the remaining requests are cancelled, extra retransmissions
  // are deduped.
  f.a->send(rt_msg(1, f.sim.now(), 200_ms, 3, 3));
  f.sim.schedule(10_ms, [&f]() { f.a->send(rt_msg(2, f.sim.now(), 200_ms, 3, 3)); });
  f.sim.run_for(2_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 2u);
  auto* recv = dynamic_cast<RealtimeEndpointBase*>(f.b.get());
  auto* send = dynamic_cast<RealtimeEndpointBase*>(f.a.get());
  EXPECT_EQ(recv->stats().recovered, 1u);
  EXPECT_EQ(recv->stats().requests_sent, 1u);  // cancelled after recovery
  // Sender fires all M=3 spaced retransmissions (they were scheduled on the
  // first request).
  EXPECT_EQ(send->stats().retransmissions_sent, 3u);
  EXPECT_EQ(recv->stats().duplicates, 2u);
}

TEST(RealtimeNM, LaterRequestsIgnoredBySender) {
  // Lose the first data frame AND the first two requests: the sender only
  // sees request #3 and must schedule exactly one M-burst.
  ProtoFixture f{LinkProtocol::kRealtimeNM, 5_ms, 0.0, {}, 19};
  class DropFirst final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override { return std::exchange(first_, false); }
    [[nodiscard]] double average_loss_rate() const override { return 0.0; }

   private:
    bool first_ = true;
  };
  class DropFirstTwo final : public net::LossModel {
   public:
    bool lose(sim::TimePoint, sim::Rng&) override { return ++count_ <= 2; }
    [[nodiscard]] double average_loss_rate() const override { return 0.0; }

   private:
    int count_ = 0;
  };
  f.pair.set_loss_a_to_b(std::make_unique<DropFirst>());
  f.pair.set_loss_b_to_a(std::make_unique<DropFirstTwo>());
  f.a->send(rt_msg(1, f.sim.now(), 200_ms, 3, 2));
  f.sim.schedule(10_ms, [&f]() { f.a->send(rt_msg(2, f.sim.now(), 200_ms, 3, 2)); });
  f.sim.run_for(2_s);
  EXPECT_EQ(f.pair.ctx_b().delivered.size(), 2u);
  auto* send = dynamic_cast<RealtimeEndpointBase*>(f.a.get());
  auto* recv = dynamic_cast<RealtimeEndpointBase*>(f.b.get());
  EXPECT_EQ(recv->stats().requests_sent, 3u);
  EXPECT_EQ(send->stats().retransmissions_sent, 2u);  // one M=2 burst only
}

TEST(RealtimeNM, BeatsSimpleUnderBurstyLoss) {
  // Under correlated (bursty) loss, N×M spaced recovery should deliver more
  // packets within the deadline than 1×1 recovery — the paper's core claim
  // for NM-Strikes.
  const auto run = [](LinkProtocol proto, std::uint8_t n_req, std::uint8_t m_ret) {
    Simulator sim;
    FakeLinkPair pair{sim, 5_ms, 0.0, 21};
    net::GilbertElliottLoss::Params p;
    p.mean_good_time = 300_ms;
    p.mean_bad_time = 30_ms;
    p.loss_good = 0.0;
    p.loss_bad = 0.95;
    pair.set_loss_a_to_b(net::make_gilbert_elliott(p, sim::Rng{22}));
    auto a = make_link_endpoint(proto, pair.ctx_a(), {});
    auto b = make_link_endpoint(proto, pair.ctx_b(), {});
    pair.attach(a.get(), b.get());
    const int n = 5000;
    for (int i = 1; i <= n; ++i) {
      sim.schedule(Duration::milliseconds(i), [&, i]() {
        Message m = make_msg(static_cast<std::uint64_t>(i), sim.now());
        m.hdr.deadline = 200_ms;
        m.hdr.nm_requests = n_req;
        m.hdr.nm_retransmissions = m_ret;
        a->send(std::move(m));
      });
    }
    sim.run_for(Duration::seconds(n / 1000 + 2));
    return static_cast<double>(pair.ctx_b().delivered.size()) / n;
  };
  const double simple = run(LinkProtocol::kRealtimeSimple, 1, 1);
  const double nm = run(LinkProtocol::kRealtimeNM, 3, 3);
  EXPECT_GT(nm, simple);
  EXPECT_GT(nm, 0.99);
}

TEST(RealtimeNM, OverheadApproximatelyOnePlusMp) {
  // §IV-A: "The overall cost of the NM-Strikes protocol (on the sender to
  // receiver side) is 1 + Mp". With independent loss p and M=3.
  Simulator sim;
  FakeLinkPair pair{sim, 5_ms, 0.05, 23};
  auto a = make_link_endpoint(LinkProtocol::kRealtimeNM, pair.ctx_a(), {});
  auto b = make_link_endpoint(LinkProtocol::kRealtimeNM, pair.ctx_b(), {});
  pair.attach(a.get(), b.get());
  const int n = 20000;
  for (int i = 1; i <= n; ++i) {
    sim.schedule(Duration::milliseconds(i), [&, i]() {
      Message m = make_msg(static_cast<std::uint64_t>(i), sim.now());
      m.hdr.deadline = 200_ms;
      m.hdr.nm_requests = 3;
      m.hdr.nm_retransmissions = 3;
      a->send(std::move(m));
    });
  }
  sim.run_for(Duration::seconds(25));
  const double cost = static_cast<double>(pair.data_frames_sent()) / n;
  EXPECT_NEAR(cost, 1.0 + 3 * 0.05, 0.03);
}

// ---- Intrusion-tolerant protocols -----------------------------------------------

TEST(ItPriority, RoundRobinFairnessUnderFlood) {
  // Source 99 floods; sources 1 and 2 send modestly. With per-source queues
  // and round-robin egress, the modest sources keep their goodput.
  Simulator sim;
  FakeLinkPair pair{sim, 5_ms, 0.0, 31};
  LinkProtocolConfig cfg;
  cfg.it_egress_msgs_per_sec = 300;  // bottleneck
  cfg.it_buffer_per_source = 16;
  auto a = make_link_endpoint(LinkProtocol::kITPriority, pair.ctx_a(), cfg);
  auto b = make_link_endpoint(LinkProtocol::kITPriority, pair.ctx_b(), cfg);
  pair.attach(a.get(), b.get());

  // 10 seconds of traffic: attacker 2000/s, correct sources 100/s each.
  for (int t = 0; t < 10000; ++t) {
    sim.schedule(Duration::milliseconds(t), [&, t]() {
      for (int k = 0; k < 2; ++k) {
        a->send(make_msg(static_cast<std::uint64_t>(t * 2 + k), sim.now(), 99));
      }
      if (t % 10 == 0) {
        a->send(make_msg(static_cast<std::uint64_t>(t), sim.now(), 1));
        a->send(make_msg(static_cast<std::uint64_t>(t), sim.now(), 2));
      }
    });
  }
  sim.run_for(11_s);
  std::map<NodeId, int> per_source;
  for (const auto& m : pair.ctx_b().delivered) ++per_source[m.hdr.origin];
  // Egress ~300/s for 10s = ~3000 slots. Fair split: each active source gets
  // ~1000. Sources 1,2 offered ~1000 each -> they should get nearly all of
  // it; attacker is clamped to ~1/3 of egress instead of 20/21.
  EXPECT_GT(per_source[1], 800);
  EXPECT_GT(per_source[2], 800);
  EXPECT_LT(per_source[99], 1500);
}

TEST(ItPriority, EvictsOldestLowestPriorityWhenFull) {
  Simulator sim;
  FakeLinkPair pair{sim, 5_ms, 0.0, 32};
  LinkProtocolConfig cfg;
  cfg.it_buffer_per_source = 4;
  cfg.it_egress_msgs_per_sec = 1000;
  auto a = make_link_endpoint(LinkProtocol::kITPriority, pair.ctx_a(), cfg);
  auto b = make_link_endpoint(LinkProtocol::kITPriority, pair.ctx_b(), cfg);
  pair.attach(a.get(), b.get());

  // Fill the queue instantly: 4 low-priority, then 4 high-priority. The 4
  // high must evict the 4 low (pump drains 1/ms, so enqueue beats drain).
  for (int i = 0; i < 4; ++i) {
    Message m = make_msg(static_cast<std::uint64_t>(i), sim.now(), 5);
    m.hdr.priority = 1;
    a->send(std::move(m));
  }
  for (int i = 4; i < 8; ++i) {
    Message m = make_msg(static_cast<std::uint64_t>(i), sim.now(), 5);
    m.hdr.priority = 9;
    a->send(std::move(m));
  }
  sim.run_for(1_s);
  // One low-priority message escapes via the first pump slot timing at
  // worst; at least 4 high-priority ones must arrive.
  int high = 0;
  for (const auto& m : pair.ctx_b().delivered) high += (m.hdr.priority == 9);
  EXPECT_EQ(high, 4);
  EXPECT_LE(pair.ctx_b().delivered.size(), 5u);
}

TEST(ItPriority, LowerPriorityArrivalDroppedWhenFullOfHigh) {
  Simulator sim;
  FakeLinkPair pair{sim, 5_ms, 0.0, 33};
  LinkProtocolConfig cfg;
  cfg.it_buffer_per_source = 3;
  cfg.it_egress_msgs_per_sec = 1000;
  auto a = make_link_endpoint(LinkProtocol::kITPriority, pair.ctx_a(), cfg);
  auto b = make_link_endpoint(LinkProtocol::kITPriority, pair.ctx_b(), cfg);
  pair.attach(a.get(), b.get());
  for (int i = 0; i < 3; ++i) {
    Message m = make_msg(static_cast<std::uint64_t>(i), sim.now(), 5);
    m.hdr.priority = 9;
    a->send(std::move(m));
  }
  Message low = make_msg(99, sim.now(), 5);
  low.hdr.priority = 1;
  EXPECT_FALSE(a->send(std::move(low)));
  sim.run_for(1_s);
  for (const auto& m : pair.ctx_b().delivered) EXPECT_EQ(m.hdr.priority, 9);
}

TEST(ItReliable, DeliversEverythingDespiteLoss) {
  Simulator sim;
  FakeLinkPair pair{sim, 5_ms, 0.15, 35};
  LinkProtocolConfig cfg;
  cfg.it_egress_msgs_per_sec = 5000;
  auto a = make_link_endpoint(LinkProtocol::kITReliable, pair.ctx_a(), cfg);
  auto b = make_link_endpoint(LinkProtocol::kITReliable, pair.ctx_b(), cfg);
  pair.attach(a.get(), b.get());
  const int n = 300;
  for (int i = 1; i <= n; ++i) {
    sim.schedule(Duration::milliseconds(i), [&, i]() {
      a->send(make_msg(static_cast<std::uint64_t>(i), sim.now()));
    });
  }
  sim.run_for(60_s);
  EXPECT_EQ(pair.ctx_b().delivered.size(), static_cast<std::size_t>(n));
}

TEST(ItReliable, BackpressurePausesAndRecovers) {
  Simulator sim;
  FakeLinkPair pair{sim, 5_ms, 0.0, 36};
  LinkProtocolConfig cfg;
  cfg.it_egress_msgs_per_sec = 2000;
  cfg.it_buffer_per_flow = 8;
  auto a = make_link_endpoint(LinkProtocol::kITReliable, pair.ctx_a(), cfg);
  auto b = make_link_endpoint(LinkProtocol::kITReliable, pair.ctx_b(), cfg);
  pair.attach(a.get(), b.get());

  // Receiver refuses admission for the first 200 ms (downstream congested).
  pair.ctx_b().admit = [&sim](const Message&) {
    return sim.now() > sim::TimePoint::zero() + 200_ms;
  };
  const int n = 6;
  for (int i = 1; i <= n; ++i) a->send(make_msg(static_cast<std::uint64_t>(i), sim.now()));
  sim.run_for(5_s);
  EXPECT_EQ(pair.ctx_b().delivered.size(), static_cast<std::size_t>(n));
  EXPECT_GT(pair.ctx_b().refused, 0u);
}

TEST(ItReliable, SenderQueueFullRefusesNewMessages) {
  Simulator sim;
  FakeLinkPair pair{sim, 5_ms, 1.0, 37};  // total loss: queue jams
  LinkProtocolConfig cfg;
  cfg.it_buffer_per_flow = 4;
  cfg.it_egress_msgs_per_sec = 100;
  auto a = make_link_endpoint(LinkProtocol::kITReliable, pair.ctx_a(), cfg);
  auto b = make_link_endpoint(LinkProtocol::kITReliable, pair.ctx_b(), cfg);
  pair.attach(a.get(), b.get());
  int accepted = 0, refused = 0;
  for (int i = 1; i <= 12; ++i) {
    a->send(make_msg(static_cast<std::uint64_t>(i), sim.now())) ? ++accepted : ++refused;
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(refused, 8);
}

TEST(ItReliable, PerFlowQueuesIsolateFlows) {
  Simulator sim;
  FakeLinkPair pair{sim, 5_ms, 0.0, 38};
  LinkProtocolConfig cfg;
  cfg.it_buffer_per_flow = 4;
  cfg.it_egress_msgs_per_sec = 2000;
  auto a = make_link_endpoint(LinkProtocol::kITReliable, pair.ctx_a(), cfg);
  auto b = make_link_endpoint(LinkProtocol::kITReliable, pair.ctx_b(), cfg);
  pair.attach(a.get(), b.get());
  // Jam flow A's admission downstream; flow B must still flow.
  pair.ctx_b().admit = [](const Message& m) { return m.hdr.flow_key != 0xF00; };
  int a_refused_at_source = 0;
  for (int i = 1; i <= 20; ++i) {
    sim.schedule(Duration::milliseconds(i * 5), [&, i]() {
      // flow 0xF00 (jammed downstream -> backpressure reaches the source)
      if (!a->send(make_msg(static_cast<std::uint64_t>(i), sim.now(), 0))) {
        ++a_refused_at_source;
      }
      a->send(make_msg(static_cast<std::uint64_t>(i), sim.now(), 1));  // flow 0xF01
    });
  }
  sim.run_for(5_s);
  int flow_b = 0;
  for (const auto& m : pair.ctx_b().delivered) flow_b += (m.hdr.flow_key == 0xF01);
  EXPECT_EQ(flow_b, 20);
  // The jammed flow's backpressure propagated all the way to its source.
  EXPECT_GT(a_refused_at_source, 0);
}

}  // namespace
}  // namespace son::overlay
