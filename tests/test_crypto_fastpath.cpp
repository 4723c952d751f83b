// The intrusion-tolerant crypto fast path: zero-allocation two-span auth
// serialization and per-link MacContext handles. Three contracts are pinned
// here:
//
//  1. Encoding equivalence — the streaming head/suffix encoders are
//     byte-identical to the heap-allocating seed encoders (auth_bytes /
//     control_auth_bytes), so every tag is bit-identical to the seed.
//  2. Zero allocation — a multi-hop sign / verify / re-sign pipeline over
//     resolved MacContexts performs no heap allocation in steady state.
//  3. Transit keying — a forwarding node verifies with the INGRESS link's
//     pairwise key and re-signs with the EGRESS link's key (regression for
//     the bench hook that used links_.front() for both), and both tags equal
//     the stateless seed HMAC over auth_bytes.
#include <gtest/gtest.h>

#include <array>
#include <random>

#include "crypto/keys.hpp"
#include "overlay/frame.hpp"
#include "overlay/link_state.hpp"
#include "overlay/group_state.hpp"
#include "overlay/network.hpp"
#include "sim/alloc_probe.hpp"

namespace son::overlay {
namespace {

using namespace son::sim::literals;

Message test_message(std::size_t payload_bytes) {
  Message m;
  m.hdr.origin = 3;
  m.hdr.src_port = 17;
  m.hdr.dest = Destination::unicast(9, 50);
  m.hdr.origin_id = (std::uint64_t{3} << 48) | 12345;
  m.hdr.flow_seq = 77;
  m.hdr.flow_key = 0xDEADBEEFCAFEF00DULL;
  m.hdr.scheme = RouteScheme::kDissemination;
  m.hdr.link_protocol = LinkProtocol::kITPriority;
  m.hdr.mask = 0b1011;
  m.hdr.origin_time = sim::TimePoint::zero() + 123_ms;
  m.hdr.deadline = 65_ms;
  m.hdr.priority = 9;
  if (payload_bytes > 0) m.payload = make_payload(payload_bytes, 0x5C);
  return m;
}

LinkFrame lsa_frame(std::size_t n_links) {
  LinkFrame f;
  f.link = 2;
  f.from = 4;
  f.to = 5;
  f.type = FrameType::kLsa;
  f.hello_seq = 991;
  f.t_sent = sim::TimePoint::zero() + 777_ms;
  f.channel = 1;
  LinkStateAd ad;
  ad.origin = 4;
  ad.seq = 31;
  for (std::size_t i = 0; i < n_links; ++i) {
    ad.links.push_back(LinkReport{static_cast<LinkBit>(i), i % 2 == 0, 3.25 + double(i), 0.01});
  }
  f.control = ad;
  return f;
}

// ---- Encoding equivalence ----------------------------------------------------

TEST(AuthEncoding, HeadPlusPayloadEqualsSeedEncoder) {
  for (const std::size_t payload : {0u, 1u, 300u, 1200u}) {
    const Message m = test_message(payload);
    std::array<std::uint8_t, kAuthHeadBytes> head{};
    const std::size_t n = auth_head_bytes(m, std::span{head});
    EXPECT_EQ(n, kAuthHeadBytes);

    const std::vector<std::uint8_t> seed = auth_bytes(m);
    ASSERT_EQ(seed.size(), kAuthHeadBytes + payload);
    EXPECT_TRUE(std::equal(head.begin(), head.end(), seed.begin()));
    if (m.payload) {
      EXPECT_TRUE(std::equal(m.payload->begin(), m.payload->end(),
                             seed.begin() + static_cast<std::ptrdiff_t>(kAuthHeadBytes)));
    }
  }
}

TEST(AuthEncoding, ControlHeadPlusSuffixEqualsSeedEncoder) {
  std::vector<std::uint8_t> scratch;
  for (std::size_t n_links = 0; n_links <= 4; ++n_links) {
    const LinkFrame f = lsa_frame(n_links);
    std::array<std::uint8_t, kControlAuthHeadBytes> head{};
    const std::size_t n = control_auth_head_bytes(f, std::span{head});
    EXPECT_EQ(n, kControlAuthHeadBytes);
    control_auth_suffix_into(f, scratch);

    const std::vector<std::uint8_t> seed = control_auth_bytes(f);
    ASSERT_EQ(seed.size(), n + scratch.size());
    EXPECT_TRUE(std::equal(head.begin(), head.end(), seed.begin()));
    EXPECT_TRUE(std::equal(scratch.begin(), scratch.end(),
                           seed.begin() + static_cast<std::ptrdiff_t>(n)));
  }
}

TEST(AuthEncoding, GroupStateSuffixEqualsSeedEncoder) {
  LinkFrame f;
  f.type = FrameType::kGroupState;
  f.from = 7;
  f.to = 2;
  f.link = 1;
  GroupStateAd ad;
  ad.origin = 7;
  ad.seq = 12;
  ad.joined = {100, 200, 4000000000u};
  f.control = ad;

  std::array<std::uint8_t, kControlAuthHeadBytes> head{};
  const std::size_t n = control_auth_head_bytes(f, std::span{head});
  std::vector<std::uint8_t> scratch;
  control_auth_suffix_into(f, scratch);
  const std::vector<std::uint8_t> seed = control_auth_bytes(f);
  ASSERT_EQ(seed.size(), n + scratch.size());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), seed.begin()));
  EXPECT_TRUE(std::equal(scratch.begin(), scratch.end(),
                         seed.begin() + static_cast<std::ptrdiff_t>(n)));
}

// Tags over the two-span streaming input equal tags over the seed buffer —
// the end-to-end bit-identity statement.
TEST(AuthEncoding, StreamedTagEqualsSeedTag) {
  crypto::Key master{};
  master[11] = 0x3C;
  crypto::KeyTable table(master, 0, 4);
  const crypto::MacContext mac = table.context(2);

  const Message m = test_message(1200);
  std::array<std::uint8_t, kAuthHeadBytes> head{};
  const std::size_t n = auth_head_bytes(m, std::span{head});
  const auto seed = auth_bytes(m);
  const crypto::Tag fast = mac.sign(
      std::span<const std::uint8_t>{head.data(), n},
      std::span<const std::uint8_t>{m.payload->data(), m.payload->size()});
  EXPECT_EQ(fast, table.sign(2, std::span<const std::uint8_t>{seed}));

  const LinkFrame f = lsa_frame(3);
  std::array<std::uint8_t, kControlAuthHeadBytes> chead{};
  const std::size_t cn = control_auth_head_bytes(f, std::span{chead});
  std::vector<std::uint8_t> suffix;
  control_auth_suffix_into(f, suffix);
  const auto cseed = control_auth_bytes(f);
  EXPECT_EQ(mac.sign(std::span<const std::uint8_t>{chead.data(), cn},
                     std::span<const std::uint8_t>{suffix}),
            table.sign(2, std::span<const std::uint8_t>{cseed}));
}

// ---- Zero allocation ---------------------------------------------------------

// A multi-hop IT pipeline — origin sign, transit verify + re-sign (distinct
// pairwise keys), destination verify, plus a signed control frame — runs
// allocation-free once the scratch capacities are warm. This is the pin for
// the tentpole's zero-allocation claim; son-analyze gates the same chain
// statically via SON_HOT.
TEST(CryptoFastPathAlloc, MultiHopSignVerifyResignLoopIsAllocationFree) {
  crypto::Key master{};
  master[0] = 0xA1;
  crypto::KeyTable t0(master, 0, 4);
  crypto::KeyTable t1(master, 1, 4);
  crypto::KeyTable t2(master, 2, 4);
  // Resolved once per link, as endpoints do.
  const crypto::MacContext c01 = t0.context(1);
  const crypto::MacContext c10 = t1.context(0);
  const crypto::MacContext c12 = t1.context(2);
  const crypto::MacContext c21 = t2.context(1);

  const Message m = test_message(1200);
  const LinkFrame f = lsa_frame(3);
  const std::span<const std::uint8_t> body{m.payload->data(), m.payload->size()};
  std::array<std::uint8_t, kAuthHeadBytes> head{};
  std::array<std::uint8_t, kControlAuthHeadBytes> chead{};
  std::vector<std::uint8_t> suffix_scratch;

  unsigned ok_hops = 0;
  std::uint8_t fold = 0;
  const auto hop = [&]() {
    const std::size_t n = auth_head_bytes(m, std::span{head});
    const std::span<const std::uint8_t> head_sp{head.data(), n};
    const crypto::Tag t_origin = c01.sign(head_sp, body);       // origin -> hop 1
    if (c10.verify(head_sp, body, t_origin)) ++ok_hops;         // hop 1 verifies
    const crypto::Tag t_resign = c12.sign(head_sp, body);       // hop 1 -> hop 2
    if (c21.verify(head_sp, body, t_resign)) ++ok_hops;         // hop 2 verifies
    const std::size_t cn = control_auth_head_bytes(f, std::span{chead});
    control_auth_suffix_into(f, suffix_scratch);                // monotone scratch
    const crypto::Tag t_ctrl = c01.sign(std::span<const std::uint8_t>{chead.data(), cn},
                                        std::span<const std::uint8_t>{suffix_scratch});
    fold = static_cast<std::uint8_t>(fold ^ t_origin[0] ^ t_resign[0] ^ t_ctrl[0]);
  };

  for (int i = 0; i < 64; ++i) hop();  // warm every scratch past its high-water mark

  const std::uint64_t before = sim::alloc_count();
  for (int i = 0; i < 100'000; ++i) hop();
  const std::uint64_t delta = sim::alloc_count() - before;
  EXPECT_EQ(delta, 0u) << "heap allocations leaked into the per-hop auth pipeline";
  EXPECT_EQ(ok_hops, 2u * (64u + 100'000u));
  (void)fold;
}

// ---- Transit re-sign keying --------------------------------------------------

// Regression: the forwarding microbenchmark hook must verify against the
// ingress link's peer and re-sign toward the routed egress link's peer. The
// re-signed tag must therefore verify at the NEXT hop under its own
// independently-derived key table.
TEST(TransitResign, VerifyKeyedToIngressResignKeyedToEgress) {
  sim::Simulator sim;
  ChainOptions opts;
  opts.n_nodes = 3;
  opts.node.authenticate = true;
  opts.node.master_key[4] = 0x66;
  auto fx = build_chain(sim, opts, sim::Rng{11});
  fx.overlay->settle(3_s);

  // A message addressed to node 2, transiting node 1, having arrived from
  // node 0 on the first chain hop.
  Message m = test_message(600);
  m.hdr.origin = 0;
  m.hdr.dest = Destination::unicast(2, 50);
  m.hdr.scheme = RouteScheme::kLinkState;

  auto& transit = fx.overlay->node(1);
  const LinkBit ingress = fx.hop_overlay_links[0];
  const LinkBit egress = fx.hop_overlay_links[1];

  // What node 0 signs toward node 1 (pairwise key 0<->1, symmetric).
  const crypto::Tag arrival = transit.bench_make_arrival_tag(m, ingress);
  const auto res = transit.bench_forward_lookup(m, ingress, &arrival);

  EXPECT_TRUE(res.verified) << "verify must use the ingress link's pairwise key";
  EXPECT_EQ(res.egress, egress);
  // The re-signed tag must be exactly what node 2 expects on ITS link from
  // node 1 — i.e. keyed 1<->2, not 0<->1.
  auto& dest = fx.overlay->node(2);
  EXPECT_EQ(res.resigned, dest.bench_make_arrival_tag(m, egress))
      << "re-sign must use the egress link's pairwise key";
  EXPECT_NE(res.resigned, arrival);

  // A tag keyed to the wrong link (the old bug: both ops on links_.front())
  // fails verification.
  const crypto::Tag wrong_key_tag = transit.bench_make_arrival_tag(m, egress);
  const auto bad = transit.bench_forward_lookup(m, ingress, &wrong_key_tag);
  EXPECT_FALSE(bad.verified);

  // Stateless oracle: the seed HMAC over the heap-serialized auth input,
  // keyed to the pair derived for each link.
  const auto bytes = auth_bytes(m);
  const auto oracle = [&](NodeId a, NodeId b) {
    return crypto::hmac_tag(crypto::derive_pair_key(opts.node.master_key, a, b), bytes);
  };
  EXPECT_EQ(arrival, oracle(0, 1));
  EXPECT_EQ(res.resigned, oracle(1, 2));
}

}  // namespace
}  // namespace son::overlay
