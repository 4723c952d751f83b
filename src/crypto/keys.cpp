#include "crypto/keys.hpp"

#include <algorithm>

namespace son::crypto {

Key derive_pair_key(const Key& master, std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  std::array<std::uint8_t, 8> pair_bytes{};
  for (int i = 0; i < 4; ++i) {
    pair_bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(a >> (8 * i));
    pair_bytes[static_cast<std::size_t>(4 + i)] = static_cast<std::uint8_t>(b >> (8 * i));
  }
  const Digest d = hmac_sha256(std::span<const std::uint8_t>{master},
                               std::span<const std::uint8_t>{pair_bytes});
  Key k;
  std::copy_n(d.begin(), k.size(), k.begin());
  return k;
}

KeyTable::KeyTable(const Key& master, std::uint32_t self, std::uint32_t num_nodes)
    : self_{self} {
  macs_.reserve(num_nodes);
  for (std::uint32_t peer = 0; peer < num_nodes; ++peer) {
    const Key key = derive_pair_key(master, self, peer);
    macs_.emplace_back(std::span<const std::uint8_t>{key});
  }
}

}  // namespace son::crypto
