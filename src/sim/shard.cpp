#include "sim/shard.hpp"

#include <algorithm>
#include <barrier>

namespace son::sim {

// Reusable two-phase rendezvous for the round protocol. A thin wrapper so the
// header does not drag <barrier> into every translation unit.
struct ShardedKernel::Gate {
  explicit Gate(std::ptrdiff_t n) : barrier(n) {}
  std::barrier<> barrier;
};

ShardedKernel::ShardedKernel(std::size_t num_partitions, unsigned workers)
    : parts_(num_partitions == 0 ? 1 : num_partitions),
      workers_{std::clamp<unsigned>(workers, 1u,
                                    static_cast<unsigned>(parts_.size()))} {
  if (workers_ > 1) {
    start_gate_ = std::make_unique<Gate>(static_cast<std::ptrdiff_t>(workers_));
    end_gate_ = std::make_unique<Gate>(static_cast<std::ptrdiff_t>(workers_));
    threads_.reserve(workers_ - 1);
    for (unsigned i = 1; i < workers_; ++i) {
      threads_.emplace_back([this]() { worker_main(); });
    }
  }
}

ShardedKernel::~ShardedKernel() {
  if (!threads_.empty()) {
    stop_ = true;
    start_gate_->barrier.arrive_and_wait();  // releases workers; they observe stop_
    for (std::thread& t : threads_) t.join();
  }
}

ShardChannel& ShardedKernel::add_channel(PartitionId src, PartitionId dst,
                                         Duration lookahead) {
  SON_DCHECK(src < parts_.size() && dst < parts_.size() && src != dst,
             "channel endpoints must be two distinct partitions");
  SON_DCHECK(lookahead > Duration::zero(),
             "a zero-lookahead cut admits no conservative parallelism");
  SON_DCHECK(channel(src, dst) == nullptr, "one channel per ordered partition pair");
  channels_.push_back(std::unique_ptr<ShardChannel>(new ShardChannel{src, dst, lookahead}));
  ShardChannel* ch = channels_.back().get();
  parts_[dst].in.push_back(ch);
  return *ch;
}

ShardChannel* ShardedKernel::channel(PartitionId src, PartitionId dst) {
  for (const auto& ch : channels_) {
    if (ch->src_ == src && ch->dst_ == dst) return ch.get();
  }
  return nullptr;
}

TimePoint ShardedKernel::now() const {
  TimePoint floor = TimePoint::max();
  for (const Part& p : parts_) floor = std::min(floor, p.committed);
  return floor;
}

std::uint64_t ShardedKernel::events_fired() const {
  std::uint64_t n = control_.events_fired();
  for (const Part& p : parts_) n += p.sim.events_fired();
  return n;
}

std::size_t ShardedKernel::pending_events() const {
  std::size_t n = control_.pending_events();
  for (const Part& p : parts_) n += p.sim.pending_events();
  return n;
}

Duration ShardedKernel::min_lookahead() const {
  Duration l = Duration::max();
  for (const auto& ch : channels_) l = std::min(l, ch->lookahead_);
  return l;
}

TimePoint ShardedKernel::horizon_of(PartitionId p, TimePoint cap) const {
  TimePoint h = cap;
  for (const ShardChannel* ch : parts_[p].in) {
    h = std::min(h, parts_[ch->src_].committed + ch->lookahead_);
  }
  return std::max(h, parts_[p].committed);
}

void ShardedKernel::run_slice(PartitionId p) {
  Part& part = parts_[p];
  if (context_) context_(&part.sim);
  if (inclusive_round_) {
    (void)part.sim.run_until(part.round_bound);
  } else {
    (void)part.sim.run_before(part.round_bound);
  }
  if (context_) context_(nullptr);
}

void ShardedKernel::run_control_until(TimePoint t) {
  if (context_) context_(&control_);
  (void)control_.run_until(t);
  if (context_) context_(nullptr);
}

void ShardedKernel::drain_work() {
  for (;;) {
    const std::size_t i = next_work_.fetch_add(1, std::memory_order_relaxed);
    if (i >= parts_.size()) return;
    run_slice(static_cast<PartitionId>(i));
  }
}

void ShardedKernel::worker_main() {
  for (;;) {
    start_gate_->barrier.arrive_and_wait();
    if (stop_) return;
    drain_work();
    end_gate_->barrier.arrive_and_wait();
  }
}

void ShardedKernel::execute_round(bool inclusive) {
  inclusive_round_ = inclusive;
  if (threads_.empty()) {
    for (PartitionId p = 0; p < parts_.size(); ++p) run_slice(p);
    return;
  }
  next_work_.store(0, std::memory_order_relaxed);
  in_round_.store(true, std::memory_order_release);
  start_gate_->barrier.arrive_and_wait();
  drain_work();  // the coordinator is one of the executors
  end_gate_->barrier.arrive_and_wait();
  in_round_.store(false, std::memory_order_release);
}

void ShardedKernel::flush_channels() {
  // Fixed drain order (channel creation order, FIFO within a channel) means
  // cross-shard arrivals get deterministic queue sequence numbers in the
  // destination — worker count never influences same-instant tie-breaks.
  for (const auto& ch : channels_) {
    Simulator& dst = parts_[ch->dst_].sim;
    for (ShardChannel::Pending& e : ch->buf_) {
      SON_DCHECK(e.when >= parts_[ch->dst_].committed,
                 "cross-shard event landed in the destination's past");
      (void)dst.schedule_at(e.when, std::move(e.cb));
    }
    ch->buf_.clear();
  }
}

std::uint64_t ShardedKernel::run_until(TimePoint deadline) {
  SON_DCHECK(deadline >= now(), "run_until deadline precedes the committed floor");
  const std::uint64_t fired_before = events_fired();
  context_ = context_factory_ ? context_factory_() : WorkerContext{};

  for (;;) {
    // Everything must rendezvous at the earliest pending global event, else
    // at the deadline.
    const TimePoint barrier = std::min(deadline, control_.next_event_time());

    bool closing = true;
    for (PartitionId p = 0; p < parts_.size(); ++p) {
      const TimePoint h = horizon_of(p, barrier);
      parts_[p].round_bound = h;
      closing = closing && h == barrier;
    }
    for (const auto& ch : channels_) ch->floor_ = parts_[ch->src_].committed;

    execute_round(/*inclusive=*/false);
    for (Part& p : parts_) p.committed = p.round_bound;
    flush_channels();
    ++rounds_;
    if (!closing) continue;

    // Every partition is quiesced at `barrier`: global events at that instant
    // run now, before any partition event at the same time. run_before left
    // each partition clock at its last fired event; bring them up to the
    // barrier so whatever a global event schedules on a partition is timed
    // from now, not from that partition's committed past.
    for (Part& p : parts_) p.sim.advance_to(barrier);
    run_control_until(barrier);
    if (barrier < deadline) continue;

    // Final inclusive pass: events at exactly the deadline (including any a
    // global event just injected). Cross-shard pushes made here are due at
    // >= deadline + lookahead, so one pass suffices; the flush parks them in
    // the destination queues for a later run_until.
    for (Part& p : parts_) p.round_bound = deadline;
    for (const auto& ch : channels_) ch->floor_ = deadline;
    execute_round(/*inclusive=*/true);
    for (Part& p : parts_) p.committed = deadline;
    flush_channels();
    break;
  }

  context_ = WorkerContext{};
  return events_fired() - fired_before;
}

}  // namespace son::sim
