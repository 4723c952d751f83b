// Parameterized property tests: protocol invariants swept across loss
// rates, path lengths, routing schemes and adversary sizes.
#include <gtest/gtest.h>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "fake_link.hpp"
#include "overlay/network.hpp"
#include <cmath>

#include "overlay/realtime.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;
using sim::Duration;
using sim::Simulator;

// ---- Property: the Reliable Data Link delivers everything exactly once,
// for any loss rate below total and any chain length. -----------------------

struct ReliableSweep {
  double loss;
  std::size_t hops;
};

class ReliableProperty : public ::testing::TestWithParam<ReliableSweep> {};

TEST_P(ReliableProperty, ExactlyOnceDeliveryAndOrder) {
  const auto [loss, hops] = GetParam();
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = hops + 1;
  opts.hop_latency = 5_ms;
  auto fx = build_chain(sim, opts, sim::Rng{1000 + hops});
  for (const auto link : fx.hop_links) {
    const auto [a, b] = fx.internet->link_endpoints(link);
    fx.internet->link_dir(link, a).set_loss_model(net::make_bernoulli(loss));
    fx.internet->link_dir(link, b).set_loss_model(net::make_bernoulli(loss));
  }
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(static_cast<NodeId>(hops)).connect(2);
  std::vector<std::uint64_t> seqs;
  dst.set_handler([&](const Message& m, Duration) { seqs.push_back(m.hdr.flow_seq); });

  ServiceSpec spec;
  spec.scheme = RouteScheme::kDissemination;
  spec.custom_mask = fx.chain_mask();
  spec.link_protocol = LinkProtocol::kReliable;
  spec.ordered = true;
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 300, .rate_pps = 400},
                            Destination::unicast(static_cast<NodeId>(hops), 2), sim.now(),
                            sim.now() + 5_s};
  sim.run_for(30_s);

  ASSERT_EQ(seqs.size(), sender.totals().sent);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    ASSERT_EQ(seqs[i], i + 1) << "order violated at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(LossAndHops, ReliableProperty,
                         ::testing::Values(ReliableSweep{0.01, 2}, ReliableSweep{0.05, 2},
                                           ReliableSweep{0.15, 3}, ReliableSweep{0.30, 2},
                                           ReliableSweep{0.05, 5}, ReliableSweep{0.10, 7}),
                         [](const auto& pinfo) {
                           return "loss" +
                                  std::to_string(static_cast<int>(pinfo.param.loss * 100)) +
                                  "_hops" + std::to_string(pinfo.param.hops);
                         });

// ---- Property: realtime protocols never deliver after their deadline by
// more than the reorder slack, and never duplicate. ---------------------------

struct RealtimeSweep {
  std::uint8_t n;
  std::uint8_t m;
};

class RealtimeProperty : public ::testing::TestWithParam<RealtimeSweep> {};

TEST_P(RealtimeProperty, NoDuplicatesAndDeadlinesRespected) {
  const auto [n_req, m_ret] = GetParam();
  Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 4;
  opts.hop_latency = 10_ms;
  auto fx = build_chain(sim, opts, sim::Rng{2000u + std::uint64_t{n_req} * 16 + m_ret});
  net::GilbertElliottLoss::Params ge;
  ge.mean_good_time = 500_ms;
  ge.mean_bad_time = 30_ms;
  ge.loss_bad = 0.8;
  std::uint64_t k = 0;
  for (const auto link : fx.hop_links) {
    const auto [a, b] = fx.internet->link_endpoints(link);
    fx.internet->link_dir(link, a).set_loss_model(
        net::make_gilbert_elliott(ge, sim::Rng{3000 + k++}));
  }
  fx.overlay->settle(3_s);

  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(3).connect(2);
  std::set<std::uint64_t> seen;
  std::uint64_t dups = 0;
  double worst_ms = 0.0;
  dst.set_handler([&](const Message& m, Duration lat) {
    if (!seen.insert(m.hdr.flow_seq).second) ++dups;
    worst_ms = std::max(worst_ms, lat.to_millis_f());
  });

  ServiceSpec spec;
  spec.scheme = RouteScheme::kDissemination;
  spec.custom_mask = fx.chain_mask();
  spec.link_protocol = LinkProtocol::kRealtimeNM;
  spec.deadline = 150_ms;
  spec.nm_requests = n_req;
  spec.nm_retransmissions = m_ret;
  client::FlowEngine sender{sim, src, {.spec = spec, .payload_bytes = 300, .rate_pps = 500},
                            Destination::unicast(3, 2), sim.now(), sim.now() + 10_s};
  sim.run_for(15_s);

  EXPECT_EQ(dups, 0u);
  EXPECT_GT(sender.totals().sent, 4000u);
  // Recovery is abandoned once the budget is spent: nothing arrives
  // grotesquely late (one per-hop recovery round of slack allowed).
  EXPECT_LT(worst_ms, 150.0 + 50.0);
  // And the protocol actually recovers most of the bursts. A single
  // retransmission (M=1) cannot escape every 80%-loss burst; the multi-
  // strike configurations must do strictly better.
  const double min_delivery = (m_ret == 1) ? 0.90 : 0.97;
  EXPECT_GT(static_cast<double>(seen.size()) / static_cast<double>(sender.totals().sent),
            min_delivery);
}

INSTANTIATE_TEST_SUITE_P(NM, RealtimeProperty,
                         ::testing::Values(RealtimeSweep{1, 1}, RealtimeSweep{2, 2},
                                           RealtimeSweep{3, 3}, RealtimeSweep{3, 1},
                                           RealtimeSweep{1, 3}),
                         [](const auto& pinfo) {
                           return "N" + std::to_string(pinfo.param.n) + "M" +
                                  std::to_string(pinfo.param.m);
                         });

// ---- Property: with f <= k-1 compromised interior nodes, k disjoint paths
// deliver 100%, for every (k, f) and several adversary placements. -----------

// Two ints and no padding: gtest prints the param's raw bytes into the test
// name, and padding bytes would make that name differ from run to run.
struct DisjointSweep {
  int k;
  int f;
};

class DisjointGuarantee : public ::testing::TestWithParam<DisjointSweep> {};

TEST_P(DisjointGuarantee, ToleratesUpToKMinus1Compromises) {
  const auto [k, f] = GetParam();
  ASSERT_LT(f, k);
  for (std::uint64_t placement = 0; placement < 5; ++placement) {
    Simulator sim;
    GraphOptions gopts;
    auto fx = build_graph_fixture(sim, circulant_topology(10), gopts,
                                  sim::Rng{4000 + placement});
    fx.overlay->settle(3_s);

    sim::Rng pick{5000 + placement * 13 + static_cast<std::uint64_t>(f)};
    std::vector<NodeId> interior;
    for (NodeId n = 1; n < 5; ++n) interior.push_back(n);        // one side
    for (NodeId n = 6; n < 10; ++n) interior.push_back(n);       // other side
    pick.shuffle(interior);
    for (int i = 0; i < f; ++i) {
      fx.overlay->node(interior[static_cast<std::size_t>(i)])
          .set_compromise(CompromiseBehavior::blackhole());
    }

    auto& src = fx.overlay->node(0).connect(1);
    auto& dst = fx.overlay->node(5).connect(2);
    client::MeasuringSink sink{dst};
    ServiceSpec spec;
    spec.scheme = RouteScheme::kDisjointPaths;
    spec.num_paths = static_cast<std::uint8_t>(k);
    for (int i = 0; i < 20; ++i) {
      src.send(Destination::unicast(5, 2), make_payload(100), spec);
    }
    sim.run_for(2_s);
    EXPECT_EQ(sink.received(), 20u) << "k=" << k << " f=" << f << " placement "
                                    << placement;
    EXPECT_EQ(sink.duplicates(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(KF, DisjointGuarantee,
                         ::testing::Values(DisjointSweep{2, 0}, DisjointSweep{2, 1},
                                           DisjointSweep{3, 1}, DisjointSweep{3, 2},
                                           DisjointSweep{4, 3}),
                         [](const auto& pinfo) {
                           return "k" + std::to_string(pinfo.param.k) + "_f" +
                                  std::to_string(pinfo.param.f);
                         });

// ---- Property: every routing scheme delivers exactly once to the client,
// whatever redundancy it uses internally. -------------------------------------

class ExactlyOnceProperty : public ::testing::TestWithParam<RouteScheme> {};

TEST_P(ExactlyOnceProperty, ClientSeesEachMessageOnce) {
  const RouteScheme scheme = GetParam();
  Simulator sim;
  GraphOptions gopts;
  auto fx = build_graph_fixture(sim, circulant_topology(10), gopts, sim::Rng{6000});
  fx.overlay->settle(3_s);
  auto& src = fx.overlay->node(0).connect(1);
  auto& dst = fx.overlay->node(5).connect(2);
  client::MeasuringSink sink{dst};
  ServiceSpec spec;
  spec.scheme = scheme;
  spec.num_paths = 3;
  for (int i = 0; i < 100; ++i) {
    src.send(Destination::unicast(5, 2), make_payload(64), spec);
  }
  sim.run_for(2_s);
  EXPECT_EQ(sink.received(), 100u);
  EXPECT_EQ(sink.duplicates(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ExactlyOnceProperty,
                         ::testing::Values(RouteScheme::kLinkState,
                                           RouteScheme::kDisjointPaths,
                                           RouteScheme::kDissemination,
                                           RouteScheme::kFlooding),
                         [](const auto& pinfo) {
                           std::string name{to_string(pinfo.param)};
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- Property: IT-Priority fairness holds across attacker intensities. -------

class FairnessProperty : public ::testing::TestWithParam<double> {};

TEST_P(FairnessProperty, CorrectSourceKeepsGoodputUnderAnyFloodRate) {
  const double attack_rate = GetParam();
  Simulator sim;
  sim::Rng rng{7000};
  // 3 sources (node 0 correct @100/s, node 1 correct @100/s, node 2
  // attacker @attack_rate) -> relay 3 -> sink 4 over a paced IT link.
  topo::Graph g(5);
  g.add_edge(0, 3, 2);
  g.add_edge(1, 3, 2);
  g.add_edge(2, 3, 2);
  g.add_edge(3, 4, 5);
  GraphOptions gopts;
  gopts.node.link_protocols.it_egress_msgs_per_sec = 400;
  gopts.node.link_protocols.it_buffer_per_source = 32;
  auto fx = build_graph_fixture(sim, g, gopts, rng);
  fx.overlay->settle(2_s);

  auto& dst = fx.overlay->node(4).connect(50);
  std::map<NodeId, int> got;
  dst.set_handler([&](const Message& m, Duration) { ++got[m.hdr.origin]; });

  ServiceSpec spec;
  spec.link_protocol = LinkProtocol::kITPriority;
  std::vector<std::unique_ptr<client::FlowEngine>> senders;
  for (NodeId s = 0; s < 2; ++s) {
    senders.push_back(std::make_unique<client::FlowEngine>(
        sim, fx.overlay->node(s).connect(10),
        client::FlowClass{.spec = spec, .payload_bytes = 300, .rate_pps = 100},
        Destination::unicast(4, 50), sim.now(), sim.now() + 10_s));
  }
  senders.push_back(std::make_unique<client::FlowEngine>(
      sim, fx.overlay->node(2).connect(10),
      client::FlowClass{.spec = spec, .payload_bytes = 300, .rate_pps = attack_rate},
      Destination::unicast(4, 50), sim.now(), sim.now() + 10_s));
  sim.run_for(12_s);

  // The egress carries 400/s; fair share for 3 active sources is ~133/s, so
  // the two correct 100/s sources must keep essentially all their traffic,
  // regardless of how hard the attacker floods.
  EXPECT_GT(got[0], 900);
  EXPECT_GT(got[1], 900);
}

INSTANTIATE_TEST_SUITE_P(FloodRates, FairnessProperty,
                         ::testing::Values(200.0, 1000.0, 5000.0, 20000.0),
                         [](const auto& pinfo) {
                           return "rate" + std::to_string(static_cast<int>(pinfo.param));
                         });


// ---- Property: FEC delivers its binomial residual across group sizes. ---------

class FecGroupSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FecGroupSweep, OverheadAndRecoveryScaleWithK) {
  const std::uint64_t k = GetParam();
  Simulator sim;
  test::FakeLinkPair pair{sim, 5_ms, 0.03, 8000 + k};
  LinkProtocolConfig cfg;
  cfg.fec_group_size = k;
  auto a = make_link_endpoint(LinkProtocol::kFec, pair.ctx_a(), cfg);
  auto b = make_link_endpoint(LinkProtocol::kFec, pair.ctx_b(), cfg);
  pair.attach(a.get(), b.get());
  const int n = 6000;
  for (int i = 1; i <= n; ++i) {
    sim.schedule(Duration::milliseconds(i), [&, i]() {
      a->send(test::make_msg(static_cast<std::uint64_t>(i), sim.now()));
    });
  }
  sim.run_for(Duration::seconds(10));
  const double delivered =
      static_cast<double>(pair.ctx_b().delivered.size()) / static_cast<double>(n);
  // Residual loss ~= p * (1 - (1-p)^k): grows with k but stays << p.
  const double p = 0.03;
  const double residual_bound = p * (1.0 - std::pow(1.0 - p, static_cast<double>(k))) * 2.5;
  EXPECT_GT(delivered, 1.0 - residual_bound - 0.004) << "k=" << k;
  // Wire overhead is exactly one parity frame per k data frames.
  const double frames_per_msg = static_cast<double>(pair.frames_sent()) / n;
  EXPECT_NEAR(frames_per_msg, 1.0 + 1.0 / static_cast<double>(k), 0.02);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, FecGroupSweep, ::testing::Values(2u, 4u, 8u, 16u),
                         [](const auto& pinfo) {
                           return "k" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace son::overlay
