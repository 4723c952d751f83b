// Flow-based duplicate suppression for redundant dissemination (§II,
// "redundant dissemination with corresponding de-duplication in the middle
// of the network"). Bounded memory: oldest entries are evicted FIFO.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "obs/counters.hpp"

namespace son::overlay {

class DedupCache {
 public:
  explicit DedupCache(std::size_t capacity = 1 << 20) : capacity_{capacity} {}

  /// Returns true if `id` was already seen; otherwise records it. One hash
  /// lookup: insert() reports existence through its `second` result, so the
  /// hottest dedup path never probes the table twice.
  bool seen_or_insert(std::uint64_t id) {
    if (!seen_.insert(id).second) return true;
    order_.push_back(id);
    if (order_.size() > capacity_) {
      seen_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
    }
    return false;
  }

  void clear() { seen_.clear(); order_.clear(); }  // a restart; evictions_ stays monotonic

  [[nodiscard]] std::size_t size() const { return seen_.size(); }
  /// Entries aged out by the FIFO capacity bound (an evicted id would be
  /// re-admitted as new — a measure of how tight the capacity is).
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;
  std::uint64_t evictions_ = 0;
  static constexpr obs::Field kCounterFields[] = {{"overlay.dedup.evictions", 0}};
  obs::Published published_{&evictions_, kCounterFields};
};

}  // namespace son::overlay
