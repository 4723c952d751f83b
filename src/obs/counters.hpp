// Named counter registry: a fold over the stats blocks of live components.
//
// Each counted event increments one plain integer in its owner's stats
// struct; the owner exports it with an obs::Published over the struct and a
// static table of (report name, byte offset) Fields. entries() sums the live
// blocks by name, in name order, plus the last values of destroyed ones.
//
// No integer is written by two threads, so none is atomic. Publishing and
// retiring lock the registry (endpoints are built and reset on partition
// workers). entries() reads live integers in place, so it may run only while
// no partition worker runs: callers read after run_until returns, and the
// sharded kernel's std::barrier orders those reads after the workers' writes.
//
// Installation is scoped and thread-local: one registry per experiment trial,
// propagated to partition workers by obs::bind_worker_observability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace son::obs {

/// One exported count: the std::uint64_t `offset` bytes into a stats block
/// (offsetof on a standard-layout struct), reported as `name`.
struct Field {
  const char* name;
  std::size_t offset;
};

class Published;

/// Must outlive every block published into it: installers scope it around
/// the components it counts (one trial, one run).
class CounterRegistry {
 public:
  /// The registry installed on this thread, or nullptr.
  [[nodiscard]] static CounterRegistry* current();
  /// Installs `reg` (may be nullptr) on this thread, returning the previous
  /// one: the sharded kernel's worker contexts use it; prefer the scope.
  static CounterRegistry* swap_current(CounterRegistry* reg);

  /// Every published name with its live plus destroyed total, in name order.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> entries() const;
  /// One name's total; 0 if no block published it.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

 private:
  friend class Published;
  mutable std::mutex mu_;  // also pins the registry: neither copyable nor movable
  /// Every published name, with the last values of its destroyed blocks.
  std::map<std::string, std::uint64_t, std::less<>> retired_;
  Published* live_ = nullptr;  // intrusive list of live blocks
};

/// Publishes a stats block to the registry installed on the constructing
/// thread (inert without one). Declare it after the block: it retires, folding
/// the block's last values into the registry, before the block is destroyed.
class Published {
 public:
  Published(const void* block, std::span<const Field> fields);
  ~Published();
  Published(const Published&) = delete;
  Published& operator=(const Published&) = delete;

 private:
  friend class CounterRegistry;
  [[nodiscard]] std::uint64_t read(const Field& f) const;

  CounterRegistry* reg_;
  const std::byte* block_;
  std::span<const Field> fields_;
  Published* prev_ = nullptr;
  Published* next_ = nullptr;
};

/// Installs a registry as this thread's current one for the scope's
/// lifetime; restores the previous one on destruction.
class ScopedCounterRegistry {
 public:
  explicit ScopedCounterRegistry(CounterRegistry& reg);
  ~ScopedCounterRegistry();
  ScopedCounterRegistry(const ScopedCounterRegistry&) = delete;
  ScopedCounterRegistry& operator=(const ScopedCounterRegistry&) = delete;

 private:
  CounterRegistry* previous_;
};

}  // namespace son::obs
