#include <gtest/gtest.h>

#include <random>

#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"

namespace son::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split at " << split;
  }
}

// FIPS 180-4 two-block (896-bit) message.
TEST(Sha256, TwoBlock896BitMessage) {
  EXPECT_EQ(to_hex(Sha256::hash("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string m(len, 'x');
    Sha256 a;
    a.update(m);
    EXPECT_EQ(a.finish(), Sha256::hash(m)) << len;
  }
}

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

// RFC 4231 test case 2.
TEST(Hmac, Rfc4231Case2) {
  const auto key = bytes("Jefe");
  const auto msg = bytes("what do ya want for nothing?");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto msg = bytes("Hi There");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 6: key longer than block size.
TEST(Hmac, LongKeyIsHashedFirst) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto msg = bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
TEST(Hmac, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 4: 25-byte incrementing key, 50-byte 0xcd data.
TEST(Hmac, Rfc4231Case4) {
  std::vector<std::uint8_t> key(25);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
  const std::vector<std::uint8_t> msg(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 5: 128-bit truncated output — exactly our Tag width.
TEST(Hmac, Rfc4231Case5Truncated) {
  const std::vector<std::uint8_t> key(20, 0x0c);
  const auto msg = bytes("Test With Truncation");
  const Tag t = hmac_tag(key, msg);
  std::string hex;
  for (const auto b : t) {
    static const char* digits = "0123456789abcdef";
    hex += digits[b >> 4];
    hex += digits[b & 0xf];
  }
  EXPECT_EQ(hex, "a3b6167473100ee06e0c796c2955552b");
}

// RFC 4231 test case 7: key AND data both longer than the block size.
TEST(Hmac, Rfc4231Case7) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto msg = bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, TagTruncationIsPrefix) {
  const auto key = bytes("k");
  const auto msg = bytes("m");
  const Digest d = hmac_sha256(key, msg);
  const Tag t = hmac_tag(key, msg);
  EXPECT_TRUE(std::equal(t.begin(), t.end(), d.begin()));
}

TEST(Hmac, VerifyTagConstantTimeEquality) {
  const auto key = bytes("key");
  const auto msg = bytes("message");
  const Tag t = hmac_tag(key, msg);
  EXPECT_TRUE(verify_tag(t, t));
  Tag bad = t;
  bad[15] ^= 1;
  EXPECT_FALSE(verify_tag(t, bad));
}

TEST(Keys, PairKeySymmetric) {
  Key master{};
  master[0] = 0x42;
  EXPECT_EQ(derive_pair_key(master, 3, 7), derive_pair_key(master, 7, 3));
  EXPECT_NE(derive_pair_key(master, 3, 7), derive_pair_key(master, 3, 8));
}

TEST(Keys, TableSignVerifyRoundTrip) {
  Key master{};
  master[5] = 0x99;
  KeyTable alice(master, 0, 4);
  KeyTable bob(master, 1, 4);
  const auto msg = bytes("attack at dawn");
  const Tag t = alice.sign(1, msg);
  EXPECT_TRUE(bob.verify(0, msg, t));
  // A third node's key fails to verify.
  KeyTable carol(master, 2, 4);
  EXPECT_FALSE(carol.verify(0, msg, t));
  // Tampered message fails.
  auto tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(bob.verify(0, tampered, t));
}

TEST(Keys, DifferentMastersDisagree) {
  Key m1{}, m2{};
  m2[31] = 1;
  EXPECT_NE(derive_pair_key(m1, 0, 1), derive_pair_key(m2, 0, 1));
}

// ---- Kernel dispatch equivalence ---------------------------------------------

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

// The dispatched kernel (SHA-NI where the CPU has it, otherwise the scalar
// fallback) must produce the same digest as the portable scalar kernel for
// every message length across the padding boundaries — this is what makes
// the kernel choice invisible to every tag and golden hash in the repo.
TEST(Sha256Dispatch, KernelsAgreeOnAllLengthsThrough4096) {
  std::mt19937_64 rng{0xD15EA5E};
  const auto check = [&](std::size_t len) {
    const auto m = random_bytes(rng, len);
    Sha256 scalar{Sha256Kernel::kScalar};
    scalar.update(m);
    Sha256 dispatched{Sha256Kernel::kShaNi};  // falls back to scalar if unsupported
    dispatched.update(m);
    EXPECT_EQ(scalar.finish(), dispatched.finish()) << "len=" << len;
  };
  for (std::size_t len = 0; len <= 256; ++len) check(len);
  for (const std::size_t len : {300u, 511u, 512u, 513u, 1000u, 1200u, 2048u, 4095u, 4096u}) {
    check(len);
  }
}

TEST(Sha256Dispatch, ReportsAKnownKernelName) {
  const std::string name = sha256_kernel_name();
  EXPECT_TRUE(name == "scalar" || name == "sha-ni") << name;
  if (!sha256_shani_supported()) EXPECT_EQ(name, "scalar");
}

TEST(Sha256Dispatch, SetKernelFallsBackWhenUnsupported) {
  const Sha256Kernel before = sha256_kernel();
  const Sha256Kernel installed = set_sha256_kernel(Sha256Kernel::kShaNi);
  if (!sha256_shani_supported()) EXPECT_EQ(installed, Sha256Kernel::kScalar);
  EXPECT_EQ(sha256_kernel(), installed);
  set_sha256_kernel(before);
}

TEST(Sha256Dispatch, ResumeFromMidstateMatchesOneShot) {
  // reset_from on a captured chaining state continues exactly where the
  // donor hash stopped — the primitive under the HMAC midstate cache.
  std::mt19937_64 rng{0xBEEF};
  const auto m = random_bytes(rng, 320);
  for (const std::size_t blocks : {1u, 2u, 4u}) {
    // Absorb the prefix through the free compressor (no padding), capture
    // the chaining state, and resume a fresh hasher from it.
    Sha256State st = kSha256Iv;
    sha256_compress(st, m.data(), blocks);
    Sha256 resumed;
    resumed.reset_from(st, blocks);
    resumed.update(std::span{m.data() + blocks * 64, m.size() - blocks * 64});
    EXPECT_EQ(resumed.finish(), Sha256::hash(m)) << blocks;
  }
}

// ---- HMAC midstate equivalence -----------------------------------------------

// HmacKey (midstate-cached) and the stateless reference must agree for every
// message length and for every head/body split of the same bytes — two-span
// streaming is defined as HMAC over the concatenation.
TEST(HmacMidstate, MatchesStatelessReferenceAcrossLengths) {
  std::mt19937_64 rng{0xFACADE};
  const auto key = random_bytes(rng, 32);
  const HmacKey cached{std::span<const std::uint8_t>{key}};
  const auto check = [&](std::size_t len) {
    const auto m = random_bytes(rng, len);
    const Digest ref = hmac_sha256(key, m);
    EXPECT_EQ(cached.mac(m), ref) << "len=" << len;
    // Every split of m into head||body gives the same digest (sample the
    // splits for long messages; exhaustive for short ones).
    const std::size_t step = len <= 80 ? 1 : 97;
    for (std::size_t cut = 0; cut <= len; cut += step) {
      EXPECT_EQ(cached.mac(std::span{m.data(), cut},
                           std::span{m.data() + cut, len - cut}),
                ref)
          << "len=" << len << " cut=" << cut;
    }
  };
  for (std::size_t len = 0; len <= 130; ++len) check(len);
  for (const std::size_t len : {200u, 1200u, 4096u}) check(len);
}

TEST(HmacMidstate, KernelPinnedKeysAgree) {
  std::mt19937_64 rng{0x5EED};
  const auto key = random_bytes(rng, 32);
  const HmacKey scalar{std::span<const std::uint8_t>{key}, Sha256Kernel::kScalar};
  const HmacKey shani{std::span<const std::uint8_t>{key}, Sha256Kernel::kShaNi};
  for (const std::size_t len : {0u, 23u, 55u, 56u, 64u, 65u, 333u, 1200u}) {
    const auto m = random_bytes(rng, len);
    EXPECT_EQ(scalar.mac(m), shani.mac(m)) << len;
  }
}

TEST(HmacMidstate, LongKeysHashedLikeReference) {
  std::mt19937_64 rng{0xABCD};
  for (const std::size_t key_len : {0u, 1u, 63u, 64u, 65u, 131u}) {
    const auto key = random_bytes(rng, key_len);
    const HmacKey cached{std::span<const std::uint8_t>{key}};
    const auto m = random_bytes(rng, 77);
    EXPECT_EQ(cached.mac(m), hmac_sha256(key, m)) << key_len;
  }
}

TEST(HmacMidstate, CheckAcceptsTagAndRejectsTamper) {
  std::mt19937_64 rng{0x7777};
  const auto key = random_bytes(rng, 32);
  const HmacKey cached{std::span<const std::uint8_t>{key}};
  const auto m = random_bytes(rng, 99);
  const std::span<const std::uint8_t> head{m.data(), 64};
  const std::span<const std::uint8_t> body{m.data() + 64, m.size() - 64};
  const Tag t = cached.tag(head, body);
  EXPECT_TRUE(cached.check(head, body, t));
  Tag bad = t;
  bad[0] ^= 1;
  EXPECT_FALSE(cached.check(head, body, bad));
}

// ---- KeyTable fast-path equivalence ------------------------------------------

TEST(Keys, TwoSpanSignMatchesSingleSpan) {
  Key master{};
  master[7] = 0x31;
  KeyTable t(master, 0, 4);
  std::mt19937_64 rng{0x1234};
  const auto m = random_bytes(rng, 200);
  const Tag whole = t.sign(2, std::span<const std::uint8_t>{m});
  for (const std::size_t cut : {0u, 1u, 64u, 128u, 200u}) {
    EXPECT_EQ(t.sign(2, std::span{m.data(), cut}, std::span{m.data() + cut, m.size() - cut}),
              whole)
        << cut;
  }
  EXPECT_TRUE(t.verify(2, std::span{m.data(), 64ul}, std::span{m.data() + 64, m.size() - 64},
                       whole));
}

// The midstate contexts against the stateless seed implementation: every
// tag equals hmac_tag(derive_pair_key(master, self, peer), head || body) —
// across the one-block edge (55/56), the block edges (63/64/65) and a full
// data frame, at several head/body cut points and for every peer.
TEST(Keys, ContextSignMatchesStatelessOracle) {
  Key master{};
  master[1] = 0x52;
  master[30] = 0x9D;
  constexpr std::uint32_t kSelf = 2;
  const KeyTable table(master, kSelf, 5);
  std::mt19937_64 rng{0x4242};
  for (const std::size_t len : {0u, 23u, 55u, 56u, 63u, 64u, 65u, 87u, 1200u}) {
    const auto m = random_bytes(rng, len);
    for (std::uint32_t peer = 0; peer < table.size(); ++peer) {
      const Key key = derive_pair_key(master, kSelf, peer);
      const Tag oracle = hmac_tag(key, m);
      const MacContext ctx = table.context(peer);
      ASSERT_TRUE(ctx.valid());
      EXPECT_EQ(table.sign(peer, std::span<const std::uint8_t>{m}), oracle) << len;
      for (const std::size_t cut : {0ul, 1ul, 23ul, 55ul, 64ul, len / 2, len}) {
        if (cut > len) continue;
        const std::span<const std::uint8_t> head{m.data(), cut};
        const std::span<const std::uint8_t> body{m.data() + cut, len - cut};
        EXPECT_EQ(ctx.sign(head, body), oracle) << "len " << len << " cut " << cut;
        EXPECT_TRUE(ctx.verify(head, body, oracle)) << "len " << len << " cut " << cut;
      }
    }
  }
}

}  // namespace
}  // namespace son::crypto
