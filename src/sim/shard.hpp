// Sharded simulation kernel: conservative parallel discrete-event execution.
//
// The topology is partitioned (by site/city — topo:: supplies the
// assignment); each partition owns a private Simulator (event queue + clock)
// and partitions interact ONLY through typed ShardChannels. A channel from
// partition S to partition D carries a lookahead L > 0 — the minimum delay
// any event crossing S→D can add (for the underlay: the smallest propagation
// delay over the links that cross the cut, plus the per-hop router latency).
// That bound is what makes conservative synchronization work: while S is
// still executing events at time t, nothing it does can affect D before
// t + L, so D may safely run ahead to min over in-channels of
// (committed(S) + L) — its horizon — without ever receiving an event in its
// past (Chandy–Misra–Bryant, with a barrier per round instead of null
// messages).
//
// Execution proceeds in rounds:
//   1. (coordinator) compute every partition's horizon, capped at the next
//      global-event time;
//   2. (workers) run each partition's events with time < horizon — partitions
//      are claimed dynamically, so any worker may run any partition;
//   3. (coordinator) flush every channel, in channel-creation order, into the
//      destination queues;
//   4. when all partitions reach the cap, run the pending global events with
//      every worker quiesced, then continue.
//
// Determinism contract: the events a partition executes in a round, and the
// (time, seq) order the flush assigns to cross-shard arrivals, depend only on
// the horizons — which are a pure function of the partition structure, the
// channel lookaheads, and the event timeline. The worker count K only changes
// which OS thread runs a partition's round, never what the round contains:
// workers=1 and workers=K are bit-identical by construction (pinned by the
// sharded golden-run test).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/check.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace son::sim {

using PartitionId = std::uint32_t;

class ShardedKernel;

/// The only legal carrier for cross-partition events. push() may only be
/// called from the source partition's executing round (or from the
/// coordinator thread while no round is running); the kernel drains the
/// buffer into the destination partition's queue at the next round boundary.
class ShardChannel {
 public:
  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  /// Enqueues `f` for delivery into the destination partition at `when`,
  /// constructing it in the staging buffer; the round flush then moves it
  /// once, into its destination queue slot. The lookahead contract requires
  /// when >= (source round start + lookahead); violating it would let an
  /// event land in the destination's past.
  template <typename F>
  void push(TimePoint when, F&& f) {
    SON_DCHECK(when >= floor_ + lookahead_,
               "cross-shard event violates the channel's lookahead bound");
    // son-analyze: allow(hot-path-alloc) "staging buffer drains every round; capacity plateaus at the per-round burst size"
    buf_.emplace_back(when, std::forward<F>(f));
    ++total_pushed_;
  }

  [[nodiscard]] PartitionId source() const { return src_; }
  [[nodiscard]] PartitionId dest() const { return dst_; }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }
  [[nodiscard]] std::uint64_t total_pushed() const { return total_pushed_; }

 private:
  friend class ShardedKernel;

  ShardChannel(PartitionId src, PartitionId dst, Duration lookahead)
      : src_{src}, dst_{dst}, lookahead_{lookahead} {}

  struct Pending {
    template <typename F>
    Pending(TimePoint w, F&& f) : when{w}, cb(std::forward<F>(f)) {}
    TimePoint when;
    Callback cb;
  };

  PartitionId src_;
  PartitionId dst_;
  Duration lookahead_;
  TimePoint floor_;  // source partition's current round start (kernel-maintained)
  std::vector<Pending> buf_;
  std::uint64_t total_pushed_ = 0;
};

class ShardedKernel {
 public:
  /// `workers` is the executor thread count (clamped to [1, num_partitions]);
  /// it affects wall-clock only, never results. workers=1 runs every round
  /// inline on the calling thread with no thread machinery at all.
  explicit ShardedKernel(std::size_t num_partitions, unsigned workers = 1);
  ~ShardedKernel();
  ShardedKernel(const ShardedKernel&) = delete;
  ShardedKernel& operator=(const ShardedKernel&) = delete;

  [[nodiscard]] std::size_t num_partitions() const { return parts_.size(); }
  [[nodiscard]] unsigned workers() const { return workers_; }

  /// A partition's private simulator. Schedule on it only from that
  /// partition's own events (or from the coordinator before/between runs) —
  /// cross-partition scheduling must go through a ShardChannel (son-analyze's
  /// cross-shard rule flags direct violations).
  [[nodiscard]] Simulator& shard_sim(PartitionId p) { return parts_[p].sim; }

  /// The control-plane simulator for global events (failure injection,
  /// routing convergence). Its events run at round barriers with every
  /// partition quiesced at exactly the event time, BEFORE any partition event
  /// at that same instant.
  [[nodiscard]] Simulator& control_sim() { return control_; }

  /// Schedules a global event (see control_sim()).
  template <typename F>
  void schedule_global(TimePoint when, F&& f) {
    SON_DCHECK(!in_round(), "schedule_global may not be called from a partition event");
    (void)control_.schedule_at(when, std::forward<F>(f));
  }

  /// Registers the channel for src→dst cross-partition events. At most one
  /// channel per ordered pair; lookahead must be > 0 (a zero-lookahead cut
  /// admits no conservative parallelism).
  ShardChannel& add_channel(PartitionId src, PartitionId dst, Duration lookahead);
  /// The channel for src→dst, or nullptr if none was registered.
  [[nodiscard]] ShardChannel* channel(PartitionId src, PartitionId dst);

  /// Runs all partitions (and due global events) up to and including
  /// `deadline`; afterwards every partition clock reads `deadline`. Returns
  /// events fired across all partitions plus the control plane.
  std::uint64_t run_until(TimePoint deadline);
  std::uint64_t run_for(Duration d) { return run_until(now() + d); }

  /// The committed floor: every event strictly before this time has fired.
  [[nodiscard]] TimePoint now() const;

  [[nodiscard]] std::uint64_t events_fired() const;
  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  /// True while worker threads may be executing partition events.
  [[nodiscard]] bool in_round() const { return in_round_.load(std::memory_order_acquire); }
  /// Smallest lookahead over all channels (Duration::max() if none) — the
  /// per-round progress guarantee.
  [[nodiscard]] Duration min_lookahead() const;

  // ---- Horizon introspection (tests) ------------------------------------
  /// The time partition p could advance to in the next round: the cap,
  /// tightened by committed(source) + lookahead over its in-channels, never
  /// below its own committed time.
  [[nodiscard]] TimePoint horizon_of(PartitionId p, TimePoint cap) const;
  /// All events strictly before this time have fired in partition p.
  [[nodiscard]] TimePoint committed(PartitionId p) const { return parts_[p].committed; }

  // ---- Worker-thread context propagation ---------------------------------
  /// Hook for thread-local context (the obs layer's recorder/registry — sim
  /// cannot depend on obs, so the coupling is inverted). The factory runs on
  /// the thread calling run_until, once per run, and may snapshot that
  /// thread's state; the returned context is invoked on the executing thread
  /// as ctx(&partition_sim) before a partition's (or the control plane's)
  /// slice and ctx(nullptr) after it. It may be invoked concurrently from
  /// several workers, so it must only touch thread-local state.
  using WorkerContext = std::function<void(Simulator*)>;
  using WorkerContextFactory = std::function<WorkerContext()>;
  void set_worker_context_factory(WorkerContextFactory factory) {
    SON_DCHECK(!in_round(), "set the context factory between runs, not during one");
    context_factory_ = std::move(factory);
  }

 private:
  struct alignas(64) Part {
    Simulator sim;
    TimePoint committed;          // all events < committed have fired
    TimePoint round_bound;        // this round's horizon (coordinator-set)
    std::vector<ShardChannel*> in;  // channels feeding this partition
  };

  void execute_round(bool inclusive);
  void run_slice(PartitionId p);
  void run_control_until(TimePoint t);
  void flush_channels();
  void worker_main();
  void drain_work();

  std::vector<Part> parts_;
  Simulator control_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;  // creation order = flush order
  unsigned workers_;
  std::uint64_t rounds_ = 0;

  WorkerContextFactory context_factory_;
  WorkerContext context_;  // this run's context (see factory docs)

  // Thread pool (only when workers_ > 1): workers park on start_gate_ between
  // rounds; the coordinator participates in every round as one executor.
  struct Gate;  // a tiny reusable barrier (shard.cpp)
  std::vector<std::thread> threads_;
  std::unique_ptr<Gate> start_gate_;
  std::unique_ptr<Gate> end_gate_;
  std::atomic<std::size_t> next_work_{0};
  std::atomic<bool> in_round_{false};
  bool inclusive_round_ = false;
  bool stop_ = false;
};

}  // namespace son::sim
