// Node identities and the pairwise symmetric key table used by the
// intrusion-tolerant overlay protocols (§IV-B): "Because the number of
// overlay nodes is small, each overlay node can know the identities of all
// valid overlay nodes in the system, and can use cryptography to
// authenticate messages and ensure that they originate from authorized
// overlay nodes."
//
// The table precomputes one HmacKey midstate per peer at construction, so
// per-frame tags skip both key-pad compressions; mac(peer) is one vector
// index. Tags equal the stateless reference
// hmac_tag(derive_pair_key(master, self, peer), message) bit for bit; the
// tests keep that reference as the oracle.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "crypto/hmac.hpp"

namespace son::crypto {

using Key = std::array<std::uint8_t, 32>;

/// Deterministically derives the shared key for the unordered node pair
/// (a, b) from a deployment-wide master secret. In a real deployment keys
/// come from provisioning; derivation keeps simulated deployments of any
/// size self-consistent.
[[nodiscard]] Key derive_pair_key(const Key& master, std::uint32_t a, std::uint32_t b);

/// Per-node view of the full pairwise key table for n overlay nodes.
class KeyTable {
 public:
  KeyTable(const Key& master, std::uint32_t self, std::uint32_t num_nodes);

  [[nodiscard]] std::uint32_t self() const { return self_; }
  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(macs_.size()); }

  /// The precomputed midstate for the channel self<->peer; tag() and
  /// check() stream the message as head||body spans.
  [[nodiscard]] const HmacKey& mac(std::uint32_t peer) const {
    assert(peer < macs_.size());
    return macs_[peer];
  }

 private:
  std::uint32_t self_;
  std::vector<HmacKey> macs_;  // midstates, indexed by peer id
};

}  // namespace son::crypto
