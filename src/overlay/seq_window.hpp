// Seq-indexed sender window for the link protocols.
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

  /// Stores `value` under `seq`. Seqs arrive in increasing order: `seq` is
  /// above every seq stored before; skipped seqs are holes.
  void put(std::uint64_t seq, T value) {
    SON_DCHECK(seq >= end_, "SeqWindow seqs must be stored in increasing order");
    if (live_ == 0) base_ = seq;  // every slot is empty: restart the window here
    if (seq - base_ >= slots_.size()) grow(seq - base_ + 1);
    end_ = seq + 1;
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

  /// Erases every entry with a seq at or below `seq`.
  void erase_through(std::uint64_t seq) {
    for (; base_ < end_ && base_ <= seq; ++base_) {
      auto& s = slot(base_);
      if (s) {
        s.reset();
        --live_;
      }
    }
    trim();
  }

  /// Live entries (holes do not count).
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// The lowest live entry; the window must not be empty.
  [[nodiscard]] Entry front() { return *begin(); }

  [[nodiscard]] iterator begin() { return iterator{this, live_ == 0 ? end_ : base_}; }
  [[nodiscard]] iterator end() { return iterator{this, end_}; }

 private:
  std::optional<T>& slot(std::uint64_t seq) {
    return slots_[static_cast<std::size_t>(seq) & (slots_.size() - 1)];
  }

  /// Advances base_ past the holes at the front, so base_ is always live
  /// (or equal to end_ when the window is empty).
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
  std::uint64_t base_ = 0;  // lowest live seq (== end_ when empty)
  std::uint64_t end_ = 0;   // one past the highest stored seq
  std::size_t live_ = 0;
};

}  // namespace son::overlay
