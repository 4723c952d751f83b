#include "sim/simulator.hpp"

namespace son::sim {

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (!queue_.empty()) {
    queue_.fire_next(now_);
    ++n;
  }
  fired_ += n;
  return n;
}

std::uint64_t Simulator::run_before(TimePoint bound) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() < bound) {
    queue_.fire_next(now_);
    ++n;
  }
  fired_ += n;
  return n;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    queue_.fire_next(now_);
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  fired_ += n;
  return n;
}

}  // namespace son::sim
