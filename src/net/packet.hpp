// The underlay datagram: what the simulated Internet carries between hosts.
//
// The payload is opaque to the underlay, exactly as the paper requires: "to
// the underlying network, an overlay looks like a normal user-level
// application". PayloadRef is a *shared immutable* handle: a datagram
// traversing k hops (one forwarding continuation per hop, plus per-hop copies
// of the datagram itself) shares one payload allocation instead of
// deep-copying the payload at every copy point. The overlay carries its
// control ads in the same handle (LinkFrame::control), so one flooded ad is
// shared by every frame that carries it.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "net/types.hpp"

namespace son::net {

namespace detail {
/// One tag object per payload type; its address identifies the type without
/// paying for RTTI lookups on the data path.
template <typename T>
inline constexpr char payload_tag = 0;
}  // namespace detail

/// Type-erased shared handle to an immutable payload. Copying a PayloadRef
/// (and therefore a Datagram) bumps a refcount; the payload itself is
/// allocated once, when the sender constructs it.
class PayloadRef {
 public:
  PayloadRef() = default;

  /// Wraps a value; implicit, so call sites write `d.payload = frame;`. The
  /// value is moved into a single shared allocation.
  template <typename T>
    requires(!std::is_same_v<std::remove_cvref_t<T>, PayloadRef>)
  PayloadRef(T&& value)  // NOLINT(google-explicit-constructor)
      : ptr_{std::make_shared<const std::remove_cvref_t<T>>(std::forward<T>(value))},
        tag_{&detail::payload_tag<std::remove_cvref_t<T>>} {}

  /// In-place construction without an intermediate move.
  template <typename T, typename... Args>
  [[nodiscard]] static PayloadRef make(Args&&... args) {
    PayloadRef p;
    p.ptr_ = std::make_shared<const T>(std::forward<Args>(args)...);
    p.tag_ = &detail::payload_tag<T>;
    return p;
  }

  /// Typed view of the payload; nullptr when empty or holding a different
  /// type.
  template <typename T>
  [[nodiscard]] const T* get() const {
    return tag_ == &detail::payload_tag<T> ? static_cast<const T*>(ptr_.get()) : nullptr;
  }

  [[nodiscard]] explicit operator bool() const { return ptr_ != nullptr; }
  void reset() {
    ptr_.reset();
    tag_ = nullptr;
  }

 private:
  std::shared_ptr<const void> ptr_;
  const void* tag_ = nullptr;
};

struct Datagram {
  HostId src = kInvalidHost;
  HostId dst = kInvalidHost;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  /// Wire size used for serialization/queueing computations.
  std::uint32_t size_bytes = 1200;
  /// Unique per send() call; assigned by the Internet. For tracing.
  std::uint64_t id = 0;
  PayloadRef payload;
};

enum class DropReason : std::uint8_t {
  kNone = 0,
  kRandomLoss,     // loss model fired
  kLinkDown,       // traversed link was down
  kRouterDown,     // next router was down
  kQueueOverflow,  // link queue full
  kNoRoute,        // no path existed at route-computation time
  kStaleRoute,     // route pointed into a failure and routing hasn't converged
  kTtlExpired,
  kNoHandler,  // destination host has no receive handler bound

  kCount_,  // sentinel — keep last; sizes the per-reason drop counters
};

/// Number of real DropReason enumerators (excludes the sentinel).
inline constexpr std::size_t kNumDropReasons = static_cast<std::size_t>(DropReason::kCount_);

[[nodiscard]] const char* to_string(DropReason r);

}  // namespace son::net
