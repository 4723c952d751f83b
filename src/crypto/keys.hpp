// Node identities and the pairwise symmetric key table used by the
// intrusion-tolerant overlay protocols (§IV-B): "Because the number of
// overlay nodes is small, each overlay node can know the identities of all
// valid overlay nodes in the system, and can use cryptography to
// authenticate messages and ensure that they originate from authorized
// overlay nodes."
//
// The table precomputes one HmacKey midstate per peer at construction, so
// per-frame sign/verify skips both key-pad compressions. Endpoints resolve a
// MacContext handle once per link (context(peer)) instead of indexing the
// table per frame. Tags equal the stateless reference
// hmac_tag(derive_pair_key(master, self, peer), message) bit for bit; the
// tests keep that reference as the oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/hmac.hpp"
#include "sim/hot.hpp"

namespace son::crypto {

using Key = std::array<std::uint8_t, 32>;

/// Deterministically derives the shared key for the unordered node pair
/// (a, b) from a deployment-wide master secret. In a real deployment keys
/// come from provisioning; derivation keeps simulated deployments of any
/// size self-consistent.
[[nodiscard]] Key derive_pair_key(const Key& master, std::uint32_t a, std::uint32_t b);

/// Per-link signing handle: the result of resolving one peer in a KeyTable.
/// Points at the peer's precomputed midstate; sign/verify stream the message
/// as head||body spans. Invalidated if the owning table is destroyed.
class MacContext {
 public:
  MacContext() = default;

  [[nodiscard]] bool valid() const { return mac_ != nullptr; }

  SON_HOT [[nodiscard]] Tag sign(std::span<const std::uint8_t> head,
                                 std::span<const std::uint8_t> body = {}) const {
    return mac_->tag(head, body);
  }
  SON_HOT [[nodiscard]] bool verify(std::span<const std::uint8_t> head,
                                    std::span<const std::uint8_t> body,
                                    const Tag& tag) const {
    return verify_tag(sign(head, body), tag);
  }

 private:
  friend class KeyTable;
  explicit MacContext(const HmacKey* mac) : mac_{mac} {}

  const HmacKey* mac_ = nullptr;
};

/// Per-node view of the full pairwise key table for n overlay nodes.
class KeyTable {
 public:
  KeyTable(const Key& master, std::uint32_t self, std::uint32_t num_nodes);

  [[nodiscard]] std::uint32_t self() const { return self_; }
  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(macs_.size()); }

  /// Resolves the signing handle for the channel self<->peer. Endpoints call
  /// this once per link, not per frame.
  [[nodiscard]] MacContext context(std::uint32_t peer) const {
    return MacContext{&macs_.at(peer)};
  }

  /// Tags `message` for the channel self<->peer.
  SON_HOT [[nodiscard]] Tag sign(std::uint32_t peer,
                                 std::span<const std::uint8_t> message) const;
  SON_HOT [[nodiscard]] bool verify(std::uint32_t peer,
                                    std::span<const std::uint8_t> message,
                                    const Tag& tag) const;
  /// Streaming variants over head||body (zero-copy two-span form).
  SON_HOT [[nodiscard]] Tag sign(std::uint32_t peer, std::span<const std::uint8_t> head,
                                 std::span<const std::uint8_t> body) const;
  SON_HOT [[nodiscard]] bool verify(std::uint32_t peer, std::span<const std::uint8_t> head,
                                    std::span<const std::uint8_t> body, const Tag& tag) const;

 private:
  std::uint32_t self_;
  std::vector<HmacKey> macs_;  // midstates, indexed by peer id
};

}  // namespace son::crypto
