// Seq-indexed sender and receiver windows for the link protocols.
//
// Every ARQ-style sender keeps per-message state keyed by its link-level
// sequence number: the realtime sender's retransmission history, the
// reliable link's unacked set, IT-Reliable's in-flight set. Seqs are handed
// out consecutively and retired mostly from the front (cumulative acks, age
// pruning), with occasional holes punched in the middle (SACK, per-message
// acks). A ring over [base, end) fits that exactly: find, erase and put are
// O(1) index arithmetic, iteration walks seqs in order, and the storage grows
// by doubling to the peak window and is then reused, so steady-state traffic
// allocates nothing (an ordered map spends one tree node per message).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace son::overlay {

template <typename T>
class SeqWindow {
 public:
  /// A live entry as seen through iteration: its seq and its value.
  struct Entry {
    std::uint64_t seq;
    T& value;
  };

  /// In-order iterator over live entries; holes are skipped. Erasing the
  /// entry an iterator points at keeps the iterator valid (it advances by
  /// seq); put() invalidates every iterator.
  class iterator {
   public:
    Entry operator*() const { return Entry{seq_, *w_->slot(seq_)}; }
    iterator& operator++() {
      do {
        ++seq_;
      } while (seq_ < w_->end_ && !w_->slot(seq_));
      return *this;
    }
    bool operator==(const iterator& o) const { return seq_ == o.seq_; }

   private:
    friend class SeqWindow;
    iterator(SeqWindow* w, std::uint64_t seq) : w_{w}, seq_{seq} {}
    SeqWindow* w_;
    std::uint64_t seq_;
  };

  /// Stores `value` under `seq`, which must not be live. Seqs may come in any
  /// order: the ring spans the live seqs, from the front; skipped seqs are holes.
  void put(std::uint64_t seq, T value) {
    if (live_ == 0) base_ = end_ = seq;  // every slot is empty: restart the window here
    const std::uint64_t lo = std::min(base_, seq);
    const std::uint64_t hi = std::max(end_, seq + 1);
    if (hi - lo > slots_.size()) grow(hi - lo);
    base_ = lo;
    end_ = hi;
    SON_DCHECK(!slot(seq), "SeqWindow::put on a live seq");
    ++live_;
    slot(seq) = std::move(value);
  }

  /// The entry for `seq`, or nullptr if it was never stored or was erased.
  [[nodiscard]] T* find(std::uint64_t seq) {
    if (seq < base_ || seq >= end_) return nullptr;
    auto& s = slot(seq);
    return s ? &*s : nullptr;
  }

  /// Erases the entry for `seq` if present.
  void erase(std::uint64_t seq) {
    if (seq < base_ || seq >= end_) return;
    auto& s = slot(seq);
    if (!s) return;
    s.reset();
    --live_;
    if (seq == base_) trim();
  }

  /// Erases every entry with a seq at or below `seq`. It costs only the seqs
  /// it passes: the holes above them (a receiver's missing seqs, which may
  /// run up to an entry far ahead) are skipped when begin() next needs to.
  void erase_through(std::uint64_t seq) {
    for (; base_ < end_ && base_ <= seq; ++base_) {
      auto& s = slot(base_);
      if (s) {
        s.reset();
        --live_;
      }
    }
  }

  /// Live entries (holes do not count).
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// The lowest live entry; the window must not be empty.
  [[nodiscard]] Entry front() { return *begin(); }

  /// One past the highest stored seq (stays put when the top is erased).
  [[nodiscard]] std::uint64_t end_seq() const { return end_; }

  [[nodiscard]] iterator begin() {
    trim();
    return iterator{this, base_};
  }
  [[nodiscard]] iterator end() { return iterator{this, end_}; }

 private:
  std::optional<T>& slot(std::uint64_t seq) {
    return slots_[static_cast<std::size_t>(seq) & (slots_.size() - 1)];
  }

  /// Advances base_ past the holes at the front, onto the lowest live seq
  /// (or to end_ when the window is empty).
  void trim() {
    if (live_ == 0) {
      base_ = end_;
      return;
    }
    while (!slot(base_)) ++base_;
  }

  /// Re-lays the live range [base_, end_) into power-of-two storage of at
  /// least `span` slots.
  void grow(std::uint64_t span) {
    std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
    while (cap < span) cap *= 2;
    std::vector<std::optional<T>> old = std::exchange(slots_, {});
    // son-analyze: allow(hot-path-alloc) "doubling growth up to the peak window span, after which the ring is reused and put() allocates nothing (pinned by LinkProtocolAlloc.*)"
    slots_.resize(cap);
    for (std::uint64_t s = base_; s < end_; ++s) {
      auto& from = old[static_cast<std::size_t>(s) & (old.size() - 1)];
      if (from) slot(s) = std::move(from);
    }
  }

  std::vector<std::optional<T>> slots_;  // size is 0 or a power of two
  std::uint64_t base_ = 0;  // no live seq below (the lowest, but for erase_through)
  std::uint64_t end_ = 0;   // one past the highest stored seq
  std::size_t live_ = 0;
};

/// How far above its floor a RecvWindow tracks a seq. Each receiver handles
/// a seq beyond it in one defined way: the reliable links refuse it; realtime
/// and the reorder buffer give up the seqs that fall out of the span.
inline constexpr std::uint64_t kMaxRecvSpan = std::uint64_t{1} << 16;

/// The receivers' twin of SeqWindow: every seq at or below floor() is done,
/// and the entries above it (out-of-order arrivals, or seqs in recovery) live
/// in a SeqWindow, anchored at a stored seq, never at the floor, so a lone
/// far-ahead entry costs one slot. An arrival taken at floor() + 1 never
/// enters the ring, and raising the floor walks only the seqs it passes, so
/// such an entry adds no work to the arrivals below it.
template <typename T>
class RecvWindow {
 public:
  [[nodiscard]] std::uint64_t floor() const { return floor_; }
  /// The highest seq ever stored, or the floor if that is higher.
  [[nodiscard]] std::uint64_t top() const { return std::max(floor_ + 1, entries_.end_seq()) - 1; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// The entry for `seq`, or nullptr (at or below the floor, or not stored).
  [[nodiscard]] T* find(std::uint64_t seq) { return entries_.find(seq); }
  /// Whether `seq`, above the floor, lies within kMaxRecvSpan of it.
  [[nodiscard]] bool in_span(std::uint64_t seq) const { return seq - floor_ <= kMaxRecvSpan; }

  /// Takes `value` for `seq` (above the floor, in span, not stored): the
  /// floor passes it at once if it lies directly above and `take(value)`
  /// returns true, else it is stored. Then advance(take).
  template <typename Take>
  void put(std::uint64_t seq, T value, Take&& take) {
    SON_DCHECK(seq > floor_ && in_span(seq), "RecvWindow::put outside the span");
    if (seq == floor_ + 1 && take(value)) {
      entries_.erase_through(++floor_);
    } else {
      entries_.put(seq, std::move(value));
    }
    advance(take);
  }

  /// Raises the floor over the entries directly above it, in ascending
  /// order, while `take(value)` returns true; each taken entry is erased.
  template <typename Take>
  void advance(Take&& take) {
    for (T* v = entries_.find(floor_ + 1); v != nullptr && take(*v);
         v = entries_.find(floor_ + 1)) {
      entries_.erase_through(++floor_);
    }
  }

  /// Raises the floor to `seq`, first handing each entry at or below it to
  /// `f(value)` in ascending order. Returns how many of the seqs given up
  /// held no entry. Costs one probe per seq passed up to top().
  template <typename F>
  std::uint64_t give_up_through(std::uint64_t seq, F&& f) {
    if (seq <= floor_) return 0;
    std::uint64_t missing = seq - floor_;
    for (std::uint64_t s = floor_ + 1, last = std::min(seq, top()); s <= last; ++s) {
      if (T* v = entries_.find(s)) {
        f(*v);
        --missing;
      }
    }
    entries_.erase_through(seq);
    floor_ = seq;
    return missing;
  }

  /// Appends the seqs missing between the floor and top() to `out`, lowest
  /// first, until `out` holds `cap`.
  void holes(std::vector<std::uint64_t>& out, std::size_t cap) {
    for (std::uint64_t s = floor_ + 1, last = top(); s < last && out.size() < cap; ++s) {
      if (entries_.find(s) == nullptr) out.push_back(s);
    }
  }

 private:
  std::uint64_t floor_ = 0;
  SeqWindow<T> entries_;
};

}  // namespace son::overlay
