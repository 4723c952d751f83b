// ITDISJ + ITFAIR — §IV-B intrusion-tolerant messaging claims.
//
// Part 1 (ITDISJ): "By using k node-disjoint paths, a source can protect
// against up to k-1 compromised nodes anywhere in the network... a source
// can use constrained flooding [which] ensures that messages are
// successfully delivered as long as at least one path of correct nodes
// exists between the source and destination."
//   Sweep f = 0..4 random compromised (blackholing) interior nodes and
//   measure delivery for link-state / 2-disjoint / 3-disjoint / flooding,
//   plus the redundancy cost (copies forwarded per message). Each
//   replication is one random compromise placement (--reps placements).
//
// Part 2 (ITFAIR): "Both Priority and Reliable messaging use fair buffer
// allocation and round-robin scheduling to ensure that a compromised source
// cannot consume the resources of other sources."
//   One attacker floods at 10x the fair rate through a rate-limited overlay
//   link shared with 4 correct sources; compare per-source goodput under a
//   naive shared-FIFO (best effort through a thin underlay pipe) vs the
//   IT-Priority fair scheduler.
//
// Part 3 (ITHOP): per-hop auth cost of IT forwarding — verify the arriving
//   tag against the ingress peer's key + re-sign toward the egress peer —
//   measured before/after the crypto fast path (HMAC midstate caching +
//   dispatched SHA-256 vs the seed from-scratch HMAC, rebuilt here from
//   auth_bytes and hmac_tag). Wall-clock, so the ns/hop numbers are
//   machine-dependent timings; the two paths' re-signed tags are
//   cross-checked bit-identical as a deterministic scalar.
#include <chrono>
#include <map>

#include "bench_common.hpp"
#include "client/traffic.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "overlay/network.hpp"

namespace {

using namespace son;
using namespace son::sim::literals;
using overlay::NodeId;
using overlay::RouteScheme;
using sim::Duration;

// ---------- Part 1: redundant dissemination vs compromised nodes -----------

struct Scheme {
  const char* label;
  RouteScheme scheme;
  std::uint8_t k;
};

const std::vector<Scheme> kSchemes{
    {"link-state (1 path)", RouteScheme::kLinkState, 1},
    {"2 disjoint paths", RouteScheme::kDisjointPaths, 2},
    {"3 disjoint paths", RouteScheme::kDisjointPaths, 3},
    {"constrained flooding", RouteScheme::kFlooding, 0},
};

/// One random compromise placement: delivery ratio + redundancy cost.
exp::Metrics run_disjoint_trial(RouteScheme scheme, std::uint8_t k, int f,
                                std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(12), gopts,
                                         sim::Rng{seed});
  auto& net = *fx.overlay;
  net.settle(3_s);

  constexpr NodeId kSrc = 0;
  constexpr NodeId kDst = 6;  // diametrically opposite on the ring
  // Choose f distinct compromised interior nodes.
  sim::Rng pick{seed * 31 + 2000 + static_cast<std::uint64_t>(f)};
  std::vector<NodeId> interior;
  for (NodeId n = 0; n < net.size(); ++n) {
    if (n != kSrc && n != kDst) interior.push_back(n);
  }
  pick.shuffle(interior);
  for (int i = 0; i < f; ++i) {
    net.node(interior[static_cast<std::size_t>(i)])
        .set_compromise(overlay::CompromiseBehavior::blackhole());
  }

  auto& src = net.node(kSrc).connect(49);
  auto& dst = net.node(kDst).connect(50);
  client::MeasuringSink sink{dst};
  overlay::ServiceSpec spec;
  spec.scheme = scheme;
  spec.num_paths = k;
  const int n_msgs = 50;
  std::uint64_t fwd_before = 0;
  for (NodeId n = 0; n < net.size(); ++n) fwd_before += net.node(n).stats().forwarded;
  for (int i = 0; i < n_msgs; ++i) {
    src.send(overlay::Destination::unicast(kDst, 50), overlay::make_payload(400), spec);
  }
  sim.run_for(2_s);
  std::uint64_t fwd_after = 0;
  for (NodeId n = 0; n < net.size(); ++n) fwd_after += net.node(n).stats().forwarded;

  exp::Metrics m;
  m.scalar("delivery_frac", sink.delivery_ratio(n_msgs));
  m.scalar("copies_per_msg", static_cast<double>(fwd_after - fwd_before) / n_msgs);
  return m;
}

std::string disj_label(const Scheme& s, int f) {
  return std::string{s.label} + "/f=" + std::to_string(f);
}

// ---------- Part 2: fair scheduling under a resource-consumption attack ------

/// Star topology: 5 source overlay nodes (0..4; node 4 is the attacker)
/// feed a relay (5) that forwards everything over one bottleneck overlay
/// link to the destination (6). Fairness in §IV-B is per SOURCE overlay
/// node, enforced at the relay's egress to the bottleneck.
exp::Metrics run_fairness(bool fair, Duration traffic_time, std::uint64_t seed) {
  sim::Simulator sim;
  sim::Rng rng{seed};
  net::Internet inet{sim, rng.fork(1)};
  const auto isp = inet.add_isp("one");
  std::vector<net::RouterId> routers;
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 7; ++i) {
    routers.push_back(inet.add_router(isp, "r" + std::to_string(i)));
    hosts.push_back(inet.add_host("h" + std::to_string(i)));
    net::LinkConfig access;
    access.prop_delay = sim::Duration::microseconds(50);
    access.bandwidth_bps = 1e9;
    inet.attach_host(hosts.back(), routers.back(), access);
  }
  net::LinkConfig fat;
  fat.prop_delay = 2_ms;
  fat.bandwidth_bps = 1e9;
  for (int i = 0; i < 5; ++i) inet.add_link(routers[static_cast<std::size_t>(i)], routers[5], fat);
  net::LinkConfig bottleneck = fat;
  bottleneck.prop_delay = 5_ms;
  // FIFO case: the wire itself is the bottleneck (~1000 x 588B msgs/s).
  // Fair case: a fat wire; the IT egress pacer enforces the same 1000/s.
  bottleneck.bandwidth_bps = fair ? 1e9 : 1000.0 * (500 + 88) * 8;
  bottleneck.max_queue_delay = 50_ms;
  inet.add_link(routers[5], routers[6], bottleneck);

  topo::Graph g(7);
  for (topo::NodeIndex i = 0; i < 5; ++i) g.add_edge(i, 5, 2.0);
  g.add_edge(5, 6, 5.0);
  overlay::NodeConfig cfg;
  cfg.authenticate = fair;
  cfg.link_protocols.it_egress_msgs_per_sec = 1000;
  cfg.link_protocols.it_buffer_per_source = 32;
  overlay::OverlayNetwork net{sim, inet, g, hosts, cfg, rng.fork(2)};
  net.settle(2_s);

  overlay::ServiceSpec spec;
  spec.link_protocol =
      fair ? overlay::LinkProtocol::kITPriority : overlay::LinkProtocol::kBestEffort;

  auto& dst = net.node(6).connect(50);
  std::map<overlay::NodeId, std::uint64_t> got;
  dst.set_handler([&](const overlay::Message& m, Duration) { ++got[m.hdr.origin]; });

  std::vector<std::unique_ptr<client::CbrSender>> senders;
  for (overlay::NodeId s = 0; s < 4; ++s) {
    auto& c = net.node(s).connect(10);
    senders.push_back(std::make_unique<client::CbrSender>(
        sim, c,
        client::CbrSender::Options{overlay::Destination::unicast(6, 50), spec, 150, 500,
                                   sim.now(), sim.now() + traffic_time}));
  }
  auto& attacker = net.node(4).connect(10);
  senders.push_back(std::make_unique<client::CbrSender>(
      sim, attacker,
      client::CbrSender::Options{overlay::Destination::unicast(6, 50), spec, 5000, 500,
                                 sim.now(), sim.now() + traffic_time}));
  sim.run_for(traffic_time + 2_s);

  exp::Metrics m;
  std::uint64_t total = 0;
  for (const overlay::NodeId p : {0, 1, 2, 3, 4}) {
    m.scalar("src" + std::to_string(p) + "_msgs", static_cast<double>(got[p]));
    total += got[p];
  }
  m.scalar("total_msgs", static_cast<double>(total));
  return m;
}

// ---------- Part 3: per-hop auth cost, crypto fast path vs seed path --------

using ForwardAuthResult = overlay::OverlayNode::ForwardAuthResult;

/// One settled authenticated transit node; time verify + re-sign per
/// forwarded message. fast_path = the node's bench hook over midstate-cached
/// MacContext handles (the live path); otherwise the seed reference below.
exp::Metrics run_perhop(bool fast_path, std::size_t payload_bytes, std::size_t iters,
                        std::uint64_t seed) {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  gopts.node.authenticate = true;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(12), gopts,
                                         sim::Rng{seed});
  fx.overlay->settle(3_s);

  auto& node = fx.overlay->node(4);
  overlay::Message m;
  m.hdr.origin = 0;
  m.hdr.dest = overlay::Destination::unicast(9, 50);
  m.hdr.origin_id = seed;
  m.hdr.scheme = overlay::RouteScheme::kLinkState;
  m.hdr.mask = 0b111111111111;
  m.payload = overlay::make_payload(payload_bytes);
  const overlay::LinkBit ingress = node.link_bits().front();
  const crypto::Tag in_auth = node.bench_make_arrival_tag(m, ingress);

  // The route leaves on a link other than the ingress, so the egress key is
  // the routed link's pair key; the cross-check below fails loudly if not.
  const ForwardAuthResult fast = node.bench_forward_lookup(m, ingress, &in_auth);
  const topo::Graph& g = node.topology().base_graph();
  const auto pair_key = [&](overlay::LinkBit b) {
    return crypto::derive_pair_key(gopts.node.master_key, node.id(), g.other_end(b, node.id()));
  };
  const crypto::Key in_key = pair_key(ingress);
  const crypto::Key out_key = pair_key(fast.egress);
  // The seed per-hop path, rebuilt from public pieces: the routing lookup,
  // then a heap-serialized auth_bytes buffer and a from-scratch HMAC per tag
  // on the raw pair keys. Pinned to the scalar kernel: the seed predates
  // runtime SHA-256 dispatch, so the hardware kernel must not leak into the
  // baseline.
  const auto seed_forward = [&]() {
    constexpr auto kSeedKernel = crypto::Sha256Kernel::kScalar;
    ForwardAuthResult res;
    res.egress = node.router().next_hop(m.hdr.dest.node);
    const auto bytes = overlay::auth_bytes(m);
    res.verified = crypto::verify_tag(crypto::hmac_tag(in_key, bytes, kSeedKernel), in_auth);
    res.resigned = crypto::hmac_tag(out_key, bytes, kSeedKernel);
    return res;
  };
  const ForwardAuthResult ref = seed_forward();
  const bool agree = fast.verified && ref.verified && fast.resigned == ref.resigned &&
                     fast.egress == ref.egress;

  std::uint8_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const ForwardAuthResult r =
        fast_path ? node.bench_forward_lookup(m, ingress, &in_auth) : seed_forward();
    sink ^= r.resigned[0];
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  exp::Metrics m2;
  m2.scalar("paths_bit_identical", agree ? 1.0 : 0.0);
  m2.scalar("tag_sink", static_cast<double>(sink));
  m2.timing("ns_per_hop", wall * 1e9 / static_cast<double>(iters));
  return m2;
}

std::string perhop_label(bool fast_path, std::size_t payload) {
  return std::string{"per-hop/"} + (fast_path ? "fast" : "seed") + "/" +
         std::to_string(payload) + "B";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = exp::Options::parse(argc, argv, "intrusion", 20, 7000);
  const int placements = opts.quick ? std::min(5, opts.effective_reps()) : 0;
  const Duration fair_time = opts.quick ? 4_s : 10_s;

  exp::Experiment ex{opts};
  for (const auto& s : kSchemes) {
    for (int f = 0; f <= 4; ++f) {
      exp::Json params = exp::Json::object();
      params["scheme"] = s.label;
      params["k"] = static_cast<std::uint64_t>(s.k);
      params["f"] = static_cast<std::int64_t>(f);
      ex.add_cell(disj_label(s, f), std::move(params),
                  [s, f](std::uint64_t seed) {
                    return run_disjoint_trial(s.scheme, s.k, f, seed);
                  },
                  placements);
    }
  }
  for (const bool fair : {false, true}) {
    exp::Json params = exp::Json::object();
    params["scheme"] = fair ? "IT-Priority" : "shared FIFO";
    params["fair"] = fair;
    ex.add_cell(fair ? "IT-Priority" : "shared FIFO", std::move(params),
                [fair, fair_time](std::uint64_t seed) {
                  return run_fairness(fair, fair_time, seed);
                },
                /*reps_override=*/1);  // deterministic single scenario
  }
  const std::size_t hop_iters = opts.quick ? 50'000 : 400'000;
  const std::vector<std::size_t> payloads{400, 1200};
  for (const std::size_t payload : payloads) {
    for (const bool fast_path : {false, true}) {
      exp::Json params = exp::Json::object();
      params["path"] = fast_path ? "fast" : "seed";
      params["payload_bytes"] = static_cast<std::uint64_t>(payload);
      params["sha256_kernel"] = crypto::sha256_kernel_name();
      ex.add_cell(perhop_label(fast_path, payload), std::move(params),
                  [fast_path, payload, hop_iters](std::uint64_t seed) {
                    return run_perhop(fast_path, payload, hop_iters, seed);
                  },
                  /*reps_override=*/3);
    }
  }
  const exp::Report report = ex.run();

  bench::heading("ITDISJ",
                 "Redundant dissemination vs compromised overlay nodes (§IV-B)");
  bench::note("12-node circulant overlay C12(1,2) (vertex connectivity 4, so 3 node-");
  bench::note("disjoint paths exist between every pair — continental maps are typically");
  bench::note("only 2-connected coast-to-coast). f random interior nodes blackhole all");
  bench::note("transit data while behaving correctly in the control plane (stealthy).");
  bench::note("Node 0 -> node 6, 50 messages, %d random compromise sets per cell.",
              placements > 0 ? placements : opts.effective_reps());
  bench::note("'copies' = overlay transmissions per message (redundancy cost).");

  bench::Table t{{"scheme", "f=0", "f=1", "f=2", "f=3", "f=4", "copies"}, 13};
  std::printf("%22s", "");
  t.print_header();
  for (const auto& s : kSchemes) {
    std::printf("%22s", s.label);
    double copies = 0.0;
    for (int f = 0; f <= 4; ++f) {
      const auto& c = report.cell(disj_label(s, f));
      t.cell(100.0 * c.scalar_mean("delivery_frac"), "%.1f%%");
      copies = std::max(copies, c.scalar_mean("copies_per_msg"));
    }
    t.cell(copies, "%.1f");
    t.end_row();
  }
  bench::note("");
  bench::note("Expected shape: k disjoint paths tolerate f <= k-1 compromises (100%%)");
  bench::note("and degrade only when f >= k; flooding survives everything except");
  bench::note("partition of correct nodes, at the highest redundancy cost.");

  bench::heading("ITFAIR",
                 "Fair round-robin scheduling under a flooding source (§IV-B)");
  bench::note("Two overlay nodes, one overlay link able to carry ~1000 msg/s. 4 correct");
  bench::note("sources send 150 msg/s each; 1 compromised source floods at 5000 msg/s.");
  bench::note("'shared FIFO' = best-effort through a bandwidth-limited pipe;");
  bench::note("'IT-Priority' = per-source buffers + round-robin egress + HMAC auth.");

  bench::Table ft{{"scheme", "src1", "src2", "src3", "src4", "attacker", "total"}, 11};
  std::printf("%14s", "");
  ft.print_header();
  for (const bool fair : {false, true}) {
    const auto& c = report.cell(fair ? "IT-Priority" : "shared FIFO");
    std::printf("%14s", fair ? "IT-Priority" : "shared FIFO");
    for (const int p : {0, 1, 2, 3, 4}) {
      ft.cell(static_cast<std::uint64_t>(c.scalar_mean("src" + std::to_string(p) + "_msgs")));
    }
    ft.cell(static_cast<std::uint64_t>(c.scalar_mean("total_msgs")));
    ft.end_row();
  }
  bench::note("");
  bench::note("Expected shape: under the shared FIFO the attacker (33x each correct");
  bench::note("source's rate) grabs nearly every open queue slot and the correct");
  bench::note("sources starve almost completely; IT-Priority's per-source buffers and");
  bench::note("round-robin egress deliver the correct sources' full 150 msg/s each,");
  bench::note("and only the attacker is clamped to the leftover capacity.");

  bench::heading("ITHOP", "Per-hop IT auth cost: crypto fast path vs seed path");
  bench::note("One authenticated transit hop = verify the arriving tag (ingress peer's");
  bench::note("key) + re-sign toward the egress peer. 'seed' = heap-serialized auth");
  bench::note("bytes + from-scratch scalar HMAC on the raw pair keys (both key-pad");
  bench::note("compressions recomputed per tag);");
  bench::note("'fast' = per-link MacContext handles resuming cached HMAC midstates on");
  bench::note("the dispatched SHA-256 kernel (%s here). Wall-clock ns, machine-",
              crypto::sha256_kernel_name());
  bench::note("dependent; tags are asserted bit-identical across paths.");

  bench::Table ht{{"payload", "seed ns/hop", "fast ns/hop", "speedup", "ok"}, 13};
  std::printf("%10s", "");
  ht.print_header();
  for (const std::size_t payload : payloads) {
    const auto& seed_c = report.cell(perhop_label(false, payload));
    const auto& fast_c = report.cell(perhop_label(true, payload));
    const bool ok = seed_c.scalar_mean("paths_bit_identical") == 1.0 &&
                    fast_c.scalar_mean("paths_bit_identical") == 1.0;
    std::printf("%10s", (std::to_string(payload) + "B").c_str());
    ht.cell(seed_c.timing_mean("ns_per_hop"), "%.0f");
    ht.cell(fast_c.timing_mean("ns_per_hop"), "%.0f");
    ht.cell(seed_c.timing_mean("ns_per_hop") / fast_c.timing_mean("ns_per_hop"),
            "%.2fx");
    ht.cell(ok ? "yes" : "NO");
    ht.end_row();
  }
  bench::note("");
  bench::note("Acceptance floor: >= 2x end-to-end on SHA-NI hardware (midstate removes");
  bench::note("half the compressions, the hardware kernel accelerates the rest).");

  return bench::write_report(report, opts) ? 0 : 1;
}
