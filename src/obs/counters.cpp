#include "obs/counters.hpp"

#include <algorithm>
#include <cstring>

namespace son::obs {
namespace {

// son-analyze: allow(mutable-static) "per-thread install pointer scoped by CounterScope; single-writer by construction"
thread_local CounterRegistry* g_current = nullptr;

}  // namespace

CounterRegistry* CounterRegistry::current() { return g_current; }

CounterRegistry* CounterRegistry::swap_current(CounterRegistry* reg) {
  return std::exchange(g_current, reg);
}

std::vector<std::pair<std::string, std::uint64_t>> CounterRegistry::entries() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<std::pair<std::string, std::uint64_t>> out(retired_.begin(), retired_.end());
  const auto by_name = [](const auto& entry, std::string_view name) { return entry.first < name; };
  for (const Published* p = live_; p != nullptr; p = p->next_) {
    for (const Field& f : p->fields_) {
      std::lower_bound(out.begin(), out.end(), f.name, by_name)->second += p->read(f);
    }
  }
  return out;
}

std::uint64_t CounterRegistry::value(std::string_view name) const {
  for (const auto& [n, v] : entries()) {
    if (n == name) return v;
  }
  return 0;
}

Published::Published(const void* block, std::span<const Field> fields)
    : reg_{CounterRegistry::current()},
      block_{static_cast<const std::byte*>(block)},
      fields_{fields} {
  if (reg_ == nullptr) return;
  const std::lock_guard<std::mutex> lock{reg_->mu_};
  for (const Field& f : fields_) {
    if (!reg_->retired_.contains(f.name)) reg_->retired_.emplace(f.name, 0);
  }
  next_ = reg_->live_;
  if (next_ != nullptr) next_->prev_ = this;
  reg_->live_ = this;
}

Published::~Published() {
  if (reg_ == nullptr) return;
  const std::lock_guard<std::mutex> lock{reg_->mu_};
  for (const Field& f : fields_) reg_->retired_.find(f.name)->second += read(f);
  (prev_ != nullptr ? prev_->next_ : reg_->live_) = next_;
  if (next_ != nullptr) next_->prev_ = prev_;
}

std::uint64_t Published::read(const Field& f) const {
  std::uint64_t v = 0;
  std::memcpy(&v, block_ + f.offset, sizeof v);
  return v;
}

ScopedCounterRegistry::ScopedCounterRegistry(CounterRegistry& reg)
    : previous_{std::exchange(g_current, &reg)} {}

ScopedCounterRegistry::~ScopedCounterRegistry() { g_current = previous_; }

}  // namespace son::obs
