// Small-buffer-optimized, move-only void() callable for the event loop.
//
// Every event in a packet-level simulation carries a closure, and
// std::function heap-allocates for closures beyond ~2 words — which makes the
// allocator the hot path at millions of events per second. Callback stores
// closures up to kInlineBytes inline (sized to fit the internet's per-hop
// forwarding continuation and the overlay's message-carrying timers) and only
// falls back to the heap beyond that. store() builds a closure straight into
// an existing Callback — the event queue's slot — so scheduling moves the
// caller's closure once, into the slot it later runs in.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace son::sim {

class Callback {
 public:
  /// Inline capacity: a captured Datagram or Message plus a few words.
  static constexpr std::size_t kInlineBytes = 120;

  Callback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    construct(std::forward<F>(f));
  }

  Callback(Callback&& o) noexcept { move_from(o); }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Precondition: *this holds a callable.
  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the held callable (if any); *this becomes empty.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Replaces the held callable with `f`: a Callback is relocated into
  /// *this, any other callable is constructed in place from the argument.
  template <typename F>
    requires std::is_invocable_r_v<void, std::remove_cvref_t<F>&>
  void store(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>) {
      static_assert(std::is_rvalue_reference_v<F&&>, "Callback is move-only");
      move_from(f);
    } else {
      construct(std::forward<F>(f));
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static Fn* as(void* p) {
    return std::launder(reinterpret_cast<Fn*>(p));
  }

  template <typename Fn>
  struct InlineOps {
    static void invoke(void* p) { (*as<Fn>(p))(); }
    static void relocate(void* dst, void* src) {
      ::new (dst) Fn(std::move(*as<Fn>(src)));
      as<Fn>(src)->~Fn();
    }
    static void destroy(void* p) { as<Fn>(p)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static void invoke(void* p) { (**as<Fn*>(p))(); }
    static void relocate(void* dst, void* src) { ::new (dst) Fn*(*as<Fn*>(src)); }
    static void destroy(void* p) { delete *as<Fn*>(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename F>
  void construct(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      // son-analyze: allow(hot-path-alloc) "closures beyond kInlineBytes are boxed; the per-event closures fit inline, pinned by the alloc-probe tests"
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  void move_from(Callback& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace son::sim
