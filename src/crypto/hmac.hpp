// HMAC-SHA256 (RFC 2104) with constant-time tag comparison.
//
// Two call styles, producing bit-identical results:
//   * hmac_sha256 / hmac_tag — stateless reference: recomputes both key-pad
//     block compressions (k^ipad, k^opad) on every call. 4 SHA-256
//     compressions for a short message. The seed implementation, kept as the
//     oracle the tests and the bench reference cells compare against.
//   * HmacKey — midstate-cached: captures the SHA-256 states after absorbing
//     k^ipad and k^opad ONCE at construction; each subsequent tag resumes
//     those states, so a short-message tag costs 2 compressions instead of
//     4. Equivalence holds because the key pads are a whole 64-byte block
//     and SHA-256 chains state block-by-block: resuming the captured state
//     is exactly the computation the stateless path performs.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "sim/hot.hpp"

namespace son::crypto {

/// 16-byte truncated HMAC tag — ample for per-link packet authentication.
using Tag = std::array<std::uint8_t, 16>;

[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

/// Streaming variant over the logical message head||body (no concatenation
/// buffer). Identical to hmac_sha256(key, head||body).
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> head,
                                 std::span<const std::uint8_t> body);
/// Kernel-pinned variant (digests do not depend on the kernel). Lets bench
/// reference cells time the pre-dispatch scalar cost without touching the
/// process-wide default mid-run.
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> head,
                                 std::span<const std::uint8_t> body, Sha256Kernel kernel);

[[nodiscard]] Tag hmac_tag(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message);
[[nodiscard]] Tag hmac_tag(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message, Sha256Kernel kernel);

/// Constant-time comparison (no early exit on mismatch).
[[nodiscard]] bool verify_tag(const Tag& expected, const Tag& actual);

namespace detail {
/// FIPS 180-4 digest serialization of the first `words` state words
/// (big-endian). `out` must hold 4 * words bytes.
inline void sha256_state_bytes(const Sha256State& s, std::uint8_t* out,
                               std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(s[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(s[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(s[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(s[i]);
  }
}
}  // namespace detail

/// Precomputed HMAC key: the midstate cache. Construction absorbs the two
/// key-pad blocks; mac()/tag() then resume the captured states and feed the
/// message as head||body spans (zero-allocation, no concatenation copy).
class HmacKey {
 public:
  HmacKey() = default;
  explicit HmacKey(std::span<const std::uint8_t> key) : HmacKey(key, sha256_kernel()) {}
  /// Kernel-pinned variant for per-kernel bench cells; digests do not depend
  /// on it.
  HmacKey(std::span<const std::uint8_t> key, Sha256Kernel kernel);

  SON_HOT [[nodiscard]] Digest mac(std::span<const std::uint8_t> head,
                                   std::span<const std::uint8_t> body = {}) const;
  /// Truncated tag. Short messages (message + 0x80 terminator + 64-bit
  /// length within one padded block — every per-hop auth head) stay inline:
  /// two direct compressions, and only the 4 state words a 16-byte tag needs
  /// are serialized.
  SON_HOT [[nodiscard]] Tag tag(std::span<const std::uint8_t> head,
                                std::span<const std::uint8_t> body = {}) const {
    if (compress_ != nullptr && head.size() + body.size() <= 55) {
      return tag_one_block(head, body);
    }
    return tag_general(head, body);
  }
  SON_HOT [[nodiscard]] bool check(std::span<const std::uint8_t> head,
                                   std::span<const std::uint8_t> body, const Tag& t) const;

 private:
  SON_HOT [[nodiscard]] Tag tag_one_block(std::span<const std::uint8_t> head,
                                          std::span<const std::uint8_t> body) const {
    // Inner hash: resume the k^ipad midstate over the single padded block.
    // Identical bytes to what Sha256::update/finish would feed the kernel.
    const std::size_t len = head.size() + body.size();
    std::array<std::uint8_t, 64> block{};
    if (!head.empty()) __builtin_memcpy(block.data(), head.data(), head.size());
    if (!body.empty()) __builtin_memcpy(block.data() + head.size(), body.data(), body.size());
    block[len] = 0x80;
    const std::uint64_t bits = (64 + len) * 8;  // key-pad block + message
    for (std::size_t i = 0; i < 8; ++i) {
      block[56 + i] = static_cast<std::uint8_t>(bits >> (8 * (7 - i)));
    }
    Sha256State st = inner_;
    compress_(st, block.data(), 1);

    // Outer hash: the 32-byte inner digest padded to one block
    // ((k^opad block + 32 bytes) * 8 = 768 bits).
    std::array<std::uint8_t, 64> oblock{};
    detail::sha256_state_bytes(st, oblock.data(), 8);
    oblock[32] = 0x80;
    oblock[62] = 0x03;  // 768 = 0x0300
    st = outer_;
    compress_(st, oblock.data(), 1);
    Tag t;
    detail::sha256_state_bytes(st, t.data(), 4);
    return t;
  }
  [[nodiscard]] Tag tag_general(std::span<const std::uint8_t> head,
                                std::span<const std::uint8_t> body) const;

  Sha256State inner_{};  // state after the k^ipad block
  Sha256State outer_{};  // state after the k^opad block
  Sha256Kernel kernel_ = Sha256Kernel::kScalar;
  detail::CompressFn compress_ = nullptr;  // resolved once; avoids per-tag dispatch
};

}  // namespace son::crypto
