#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>

namespace son::crypto {

namespace {
void key_pads(std::span<const std::uint8_t> key, std::array<std::uint8_t, 64>& ipad,
              std::array<std::uint8_t, 64>& opad, Sha256Kernel kernel) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    Sha256 kh{kernel};
    kh.update(key);
    const Digest kd = kh.finish();
    std::memcpy(k_block.data(), kd.data(), kd.size());
  } else if (!key.empty()) {  // an empty span's data() may be null
    std::memcpy(k_block.data(), key.data(), key.size());
  }
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
}
}  // namespace

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> head,
                   std::span<const std::uint8_t> body, Sha256Kernel kernel) {
  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  key_pads(key, ipad, opad, kernel);

  Sha256 inner{kernel};
  inner.update(std::span<const std::uint8_t>{ipad});
  inner.update(head);
  inner.update(body);
  const Digest inner_digest = inner.finish();

  Sha256 outer{kernel};
  outer.update(std::span<const std::uint8_t>{opad});
  outer.update(std::span<const std::uint8_t>{inner_digest});
  return outer.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> head,
                   std::span<const std::uint8_t> body) {
  return hmac_sha256(key, head, body, sha256_kernel());
}

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> message) {
  return hmac_sha256(key, message, {}, sha256_kernel());
}

Tag hmac_tag(std::span<const std::uint8_t> key, std::span<const std::uint8_t> message,
             Sha256Kernel kernel) {
  const Digest d = hmac_sha256(key, message, {}, kernel);
  Tag t;
  std::copy_n(d.begin(), t.size(), t.begin());
  return t;
}

Tag hmac_tag(std::span<const std::uint8_t> key, std::span<const std::uint8_t> message) {
  return hmac_tag(key, message, sha256_kernel());
}

bool verify_tag(const Tag& expected, const Tag& actual) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) diff |= expected[i] ^ actual[i];
  return diff == 0;
}

HmacKey::HmacKey(std::span<const std::uint8_t> key, Sha256Kernel kernel) : kernel_{kernel} {
  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  key_pads(key, ipad, opad, kernel_);
  inner_ = kSha256Iv;
  outer_ = kSha256Iv;
  compress_ = detail::compress_fn(kernel_);
  compress_(inner_, ipad.data(), 1);
  compress_(outer_, opad.data(), 1);
}

Digest HmacKey::mac(std::span<const std::uint8_t> head,
                    std::span<const std::uint8_t> body) const {
  // Default-constructed keys fall back to per-call dispatch.
  const detail::CompressFn compress =
      compress_ != nullptr ? compress_ : detail::compress_fn(kernel_);
  const std::size_t len = head.size() + body.size();

  // Inner hash: resume the k^ipad midstate. Short messages (the per-hop tag
  // hot path: 23B control heads, sub-block data heads) fit message + 0x80
  // terminator + 64-bit length in ONE padded block, so the block is built on
  // the stack and compressed directly — no streaming-buffer machinery.
  // Identical bytes to what Sha256::update/finish would feed the kernel.
  // Either way the inner digest is serialized straight into the outer block,
  // which is always exactly one block: the 32-byte digest padded to
  // (k^opad block + 32 bytes) * 8 = 768 bits.
  std::array<std::uint8_t, 64> oblock{};
  if (len <= 55) {
    std::array<std::uint8_t, 64> block{};
    if (!head.empty()) std::memcpy(block.data(), head.data(), head.size());
    if (!body.empty()) std::memcpy(block.data() + head.size(), body.data(), body.size());
    block[len] = 0x80;
    const std::uint64_t bits = (64 + len) * 8;  // key-pad block + message
    for (std::size_t i = 0; i < 8; ++i) {
      block[56 + i] = static_cast<std::uint8_t>(bits >> (8 * (7 - i)));
    }
    Sha256State inner = inner_;
    compress(inner, block.data(), 1);
    detail::sha256_state_bytes(inner, oblock.data(), 8);
  } else {
    Sha256 h{kernel_};
    h.reset_from(inner_, 1);
    h.update(head);
    h.update(body);
    const Digest inner_digest = h.finish();
    std::memcpy(oblock.data(), inner_digest.data(), inner_digest.size());
  }
  oblock[32] = 0x80;
  oblock[62] = 0x03;  // 768 = 0x0300
  Sha256State outer = outer_;
  compress(outer, oblock.data(), 1);
  Digest out;
  detail::sha256_state_bytes(outer, out.data(), 8);
  return out;
}

Tag HmacKey::tag_general(std::span<const std::uint8_t> head,
                         std::span<const std::uint8_t> body) const {
  const Digest d = mac(head, body);
  Tag t;
  std::copy_n(d.begin(), t.size(), t.begin());
  return t;
}

bool HmacKey::check(std::span<const std::uint8_t> head, std::span<const std::uint8_t> body,
                    const Tag& t) const {
  return verify_tag(tag(head, body), t);
}

}  // namespace son::crypto
