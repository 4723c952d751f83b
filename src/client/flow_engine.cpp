#include "client/flow_engine.hpp"

#include <algorithm>
#include <cmath>

#include "sim/check.hpp"

namespace son::client {

std::optional<LoadCurve> LoadCurve::from_name(const std::string& name) {
  LoadCurve c;
  if (name == "const") {
    c.kind = Kind::kConstant;
    return c;
  }
  if (name == "diurnal") {
    c.kind = Kind::kDiurnal;
    return c;
  }
  if (name == "flash") {
    c.kind = Kind::kFlashCrowd;
    return c;
  }
  return std::nullopt;
}

double LoadCurve::scale_at(sim::TimePoint t, sim::TimePoint start) const {
  const sim::Duration rel = t - start;
  switch (kind) {
    case Kind::kConstant:
      return 1.0;
    case Kind::kDiurnal: {
      const double phase = 6.283185307179586 * (rel / period);
      return std::max(0.0, 1.0 + amplitude * std::sin(phase));
    }
    case Kind::kFlashCrowd:
      return (rel >= spike_after && rel < spike_after + spike_width) ? spike_factor : 1.0;
  }
  return 1.0;
}

FlowEngine::FlowEngine(sim::Simulator& sim, overlay::ClientEndpoint& client,
                       FlowEngineOptions opts, sim::Rng rng)
    : sim_{sim},
      client_{client},
      opts_{std::move(opts)},
      rng_{rng} {
  SON_DCHECK(!opts_.classes.empty(), "FlowEngine needs at least one FlowClass");
  SON_DCHECK(!opts_.dests.empty(), "FlowEngine needs at least one destination");
  // Flow::cls and Flow::dest store the indices narrowed to 8 and 16 bits.
  SON_DCHECK(opts_.classes.size() <= 256, "FlowEngine holds at most 256 flow classes");
  SON_DCHECK(opts_.dests.size() <= 65536, "FlowEngine holds at most 65536 destinations");
  SON_DCHECK(opts_.buckets > 0 && opts_.bucket_width > sim::Duration::zero(),
             "degenerate bucket wheel");
  bucket_width_ns_ = opts_.bucket_width.ns();
  wheel_.resize(opts_.buckets);

  payloads_.reserve(opts_.classes.size());
  double total_weight = 0.0;
  for (const FlowClass& c : opts_.classes) {
    SON_DCHECK(c.rate_pps > 0.0, "flow class needs a positive rate");
    payloads_.push_back(overlay::make_payload(c.payload_bytes));
    total_weight += c.weight;
    cum_weights_.push_back(total_weight);
    mean_gap_s_.push_back(1.0 / c.rate_pps);
    gap_ns_.push_back(c.poisson ? 0 : sim::Duration::from_seconds_f(1.0 / c.rate_pps).ns());
    SON_DCHECK(c.poisson || gap_ns_.back() > 0, "CBR inter-packet gap rounds to zero");
  }
  SON_DCHECK(total_weight > 0.0, "flow class weights sum to zero");
  sent_by_class_.assign(opts_.classes.size(), 0);
  blocked_by_class_.assign(opts_.classes.size(), 0);

  // Reserve the flow table up front: steady-state ticking then never touches
  // the allocator, which the alloc-probe test asserts.
  const std::size_t headroom =
      opts_.capacity_headroom != 0 ? opts_.capacity_headroom : opts_.flows / 2 + 1024;
  const std::size_t cap = opts_.flows + headroom;
  flows_.reserve(cap);
  heap_.reserve(cap + 1);
  free_list_.reserve(cap);
}

namespace {

FlowEngineOptions one_flow_options(const FlowClass& cls, const overlay::Destination& dest,
                                   sim::TimePoint first, sim::TimePoint stop) {
  FlowEngineOptions o;
  o.classes = {cls};
  o.dests = {dest};
  o.start = first;
  o.stop = stop;
  o.capacity_headroom = 1;  // one table row, not the default flows / 2 + 1024
  o.legacy_identity = true;
  return o;
}

}  // namespace

FlowEngine::FlowEngine(sim::Simulator& sim, overlay::ClientEndpoint& client,
                       const FlowClass& cls, const overlay::Destination& dest,
                       sim::TimePoint first, sim::TimePoint stop, sim::Rng rng)
    : FlowEngine{sim, client, one_flow_options(cls, dest, first, stop), sim::Rng{}} {
  (void)add_flow(0, 0, first, stop, rng);
  start();
}

std::uint32_t FlowEngine::acquire_slot() {
  if (!free_list_.empty()) {
    const std::uint32_t idx = free_list_.back();
    free_list_.pop_back();
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(flows_.size());
  flows_.push_back(Flow{});
  return idx;
}

void FlowEngine::release_slot(std::uint32_t idx) { free_list_.push_back(idx); }

void FlowEngine::insert_heap(std::uint32_t idx) {
  heap_.push_back(HeapEntry{flows_[idx].fire_ns, flows_[idx].order, idx});
  std::push_heap(heap_.begin(), heap_.end(), [](const HeapEntry& a, const HeapEntry& b) {
    return a.fire_ns > b.fire_ns || (a.fire_ns == b.fire_ns && a.order > b.order);
  });
}

void FlowEngine::insert(std::uint32_t idx) {
  const std::int64_t b = flows_[idx].fire_ns / bucket_width_ns_;
  if (b < next_bucket_) {
    insert_heap(idx);
  } else if (b < next_bucket_ + static_cast<std::int64_t>(wheel_.size())) {
    wheel_[static_cast<std::size_t>(b % static_cast<std::int64_t>(wheel_.size()))].push_back(idx);
    ++wheel_count_;
  } else {
    overflow_.push_back(idx);
    overflow_min_ = std::min(overflow_min_, flows_[idx].fire_ns);
  }
}

void FlowEngine::redistribute_overflow() {
  // Compact in place: entries now inside the wheel horizon move to the wheel
  // (or straight to the heap); the rest stay, with the min re-tracked.
  const auto buckets = static_cast<std::int64_t>(wheel_.size());
  std::size_t keep = 0;
  overflow_min_ = kNever;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    const std::uint32_t idx = overflow_[i];
    const std::int64_t b = flows_[idx].fire_ns / bucket_width_ns_;
    if (b < next_bucket_ + buckets) {
      if (b < next_bucket_) {
        insert_heap(idx);
      } else {
        wheel_[static_cast<std::size_t>(b % buckets)].push_back(idx);
        ++wheel_count_;
      }
    } else {
      overflow_[keep++] = idx;
      overflow_min_ = std::min(overflow_min_, flows_[idx].fire_ns);
    }
  }
  overflow_.resize(keep);
}

void FlowEngine::advance_to(std::int64_t now_ns) {
  const auto buckets = static_cast<std::int64_t>(wheel_.size());
  const std::int64_t target = now_ns / bucket_width_ns_;  // bucket containing `now`
  while (next_bucket_ <= target) {
    if (wheel_count_ == 0) {
      // Nothing queued inside the horizon: fast-forward instead of walking
      // empty buckets one by one (sparse engines, long idle gaps).
      next_bucket_ = target + 1;
      redistribute_overflow();
      break;
    }
    auto& bkt = wheel_[static_cast<std::size_t>(next_bucket_ % buckets)];
    for (const std::uint32_t idx : bkt) insert_heap(idx);
    wheel_count_ -= bkt.size();
    bkt.clear();
    ++next_bucket_;
    if (next_bucket_ % buckets == 0) redistribute_overflow();
  }
  // A due overflow entry must not wait for the next revolution boundary.
  if (overflow_min_ <= now_ns) redistribute_overflow();
}

std::int64_t FlowEngine::peek_next_fire() const {
  std::int64_t best = heap_.empty() ? kNever : heap_.front().fire_ns;
  if (wheel_count_ > 0 && best > next_bucket_ * bucket_width_ns_) {
    // Earliest possible wheel fire is the first non-empty bucket's start —
    // conservative: the wake there collects the bucket and re-arms exactly.
    const auto buckets = static_cast<std::int64_t>(wheel_.size());
    for (std::int64_t b = next_bucket_; b < next_bucket_ + buckets; ++b) {
      const std::int64_t bucket_start = b * bucket_width_ns_;
      if (bucket_start >= best) break;
      if (!wheel_[static_cast<std::size_t>(b % buckets)].empty()) {
        best = bucket_start;
        break;
      }
    }
  }
  if (!overflow_.empty()) best = std::min(best, overflow_min_);
  return best;
}

void FlowEngine::arm() {
  const std::int64_t next = peek_next_fire();
  if (next == kNever) return;  // idle; a later add_flow / arrival re-arms
  if (timers_.pending(timer_)) {
    if (armed_at_ <= next) return;  // existing wake is early enough
    timers_.cancel(timer_);
  }
  armed_at_ = next;
  timer_ = timers_.schedule_at(sim::TimePoint::from_ns(next), [this] { on_timer(); });
}

void FlowEngine::on_timer() {
  armed_at_ = kNever;
  process_due();
  arm();
}

void FlowEngine::process_due() {
  const std::int64_t now_ns = sim_.now().ns();
  advance_to(now_ns);
  const auto cmp = [](const HeapEntry& a, const HeapEntry& b) {
    return a.fire_ns > b.fire_ns || (a.fire_ns == b.fire_ns && a.order > b.order);
  };
  while (!heap_.empty() && heap_.front().fire_ns <= now_ns) {
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    const std::uint32_t idx = heap_.back().idx;
    heap_.pop_back();
    fire_flow(idx, now_ns);
  }
}

void FlowEngine::fire_flow(std::uint32_t idx, std::int64_t now_ns) {
  Flow& f = flows_[idx];
  // Stop contract (pinned by the traffic boundary tests): no packets at or
  // after the flow's stop time.
  if (now_ns >= f.stop_ns) {
    retire(idx);
    return;
  }
  const std::size_t c = f.cls;
  const overlay::Destination& dest = opts_.dests[f.dest];
  bool admitted;
  if (hook_ != nullptr) {
    admitted = hook_(hook_ctx_, c, dest, sim::TimePoint::from_ns(now_ns));
  } else if (opts_.legacy_identity) {
    admitted = client_.send(dest, payloads_[c], opts_.classes[c].spec);
  } else {
    admitted = client_.send_flow(dest, payloads_[c], opts_.classes[c].spec, f.tag, ++f.seq);
  }
  if (admitted) {
    ++totals_.sent;
    ++sent_by_class_[c];
  } else {
    ++totals_.blocked;
    ++blocked_by_class_[c];
  }
  if (f.budget != kNoBudget && --f.budget == 0) {
    retire(idx);
    return;
  }
  std::int64_t next;
  if (gap_ns_[c] > 0) {
    next = f.fire_ns + gap_ns_[c];  // CBR: exact grid, no drift
  } else {
    next = now_ns + sim::Duration::from_seconds_f(f.rng.exponential(mean_gap_s_[c])).ns();
  }
  if (next >= f.stop_ns) {
    // Equivalent to the per-object senders' "tick past stop does nothing",
    // minus the dead wake-up.
    retire(idx);
    return;
  }
  f.fire_ns = next;
  f.order = ++order_counter_;
  insert(idx);
}

void FlowEngine::retire(std::uint32_t idx) {
  release_slot(idx);
  --active_;
  ++totals_.retired;
}

std::uint32_t FlowEngine::add_flow(std::size_t cls, std::size_t dest, sim::TimePoint first,
                                   sim::TimePoint stop, sim::Rng rng) {
  SON_DCHECK(cls < opts_.classes.size(), "flow class out of range");
  SON_DCHECK(dest < opts_.dests.size(), "destination index out of range");
  const std::uint32_t budget = opts_.classes[cls].packet_budget;
  const std::uint32_t idx = acquire_slot();
  flows_[idx] = Flow{.fire_ns = std::max(first.ns(), sim_.now().ns()),
                     .stop_ns = stop.ns(),
                     .order = ++order_counter_,
                     .rng = rng,
                     .seq = 0,
                     .budget = budget == 0 ? kNoBudget : budget,
                     .tag = ++tag_counter_,
                     .dest = static_cast<std::uint16_t>(dest),
                     .cls = static_cast<std::uint8_t>(cls)};
  insert(idx);
  ++active_;
  peak_active_ = std::max(peak_active_, active_);
  ++totals_.activated;
  if (started_) arm();
  return idx;
}

void FlowEngine::start() {
  SON_DCHECK(!started_, "FlowEngine started twice");
  started_ = true;
  if (opts_.flows > 0) {
    SON_DCHECK(opts_.mean_lifetime > sim::Duration::zero() ||
                   opts_.curve.kind == LoadCurve::Kind::kConstant,
               "non-constant load curves need flow churn (mean_lifetime > 0)");
    timers_.schedule_at(opts_.start, [this] { on_start(); });
  } else {
    arm();  // population was built with add_flow()
  }
}

void FlowEngine::on_start() {
  activate_batch(opts_.flows);
  if (opts_.mean_lifetime > sim::Duration::zero()) {
    timers_.schedule(opts_.arrival_batch, [this] { on_arrival_tick(); });
  }
  process_due();  // first packets go out at the start instant itself
  arm();
}

void FlowEngine::on_arrival_tick() {
  const sim::TimePoint now = sim_.now();
  if (now >= opts_.stop) return;
  // Population target / mean lifetime = steady-state arrival rate (Little's
  // law); the curve modulates it over time.
  const double base_rate =
      static_cast<double>(opts_.flows) / opts_.mean_lifetime.to_seconds_f();
  const double lam = base_rate * opts_.curve.scale_at(now, opts_.start) *
                     opts_.arrival_batch.to_seconds_f();
  const std::uint64_t k = poisson_draw(lam);
  if (k > 0) activate_batch(k);
  timers_.schedule(opts_.arrival_batch, [this] { on_arrival_tick(); });
  if (k > 0) {
    process_due();
    arm();
  }
}

void FlowEngine::activate_batch(std::uint64_t count) {
  const sim::TimePoint now = sim_.now();
  for (std::uint64_t i = 0; i < count; ++i) {
    // Weighted class pick, uniform destination, exponential lifetime — all
    // drawn from the engine stream so the population is layout-independent.
    const double u = rng_.uniform() * cum_weights_.back();
    std::size_t c = 0;
    while (c + 1 < cum_weights_.size() && u >= cum_weights_[c]) ++c;
    const std::size_t d = rng_.index(opts_.dests.size());
    sim::TimePoint stop = opts_.stop;
    if (opts_.mean_lifetime > sim::Duration::zero()) {
      const double life_s = rng_.exponential(opts_.mean_lifetime.to_seconds_f());
      stop = std::min(stop, now + sim::Duration::from_seconds_f(life_s));
    }
    // First fires are phase-staggered across one inter-packet gap: a 10^6-flow
    // initial batch must not stampede the network at the activation instant.
    const sim::TimePoint first =
        now + sim::Duration::from_seconds_f(rng_.uniform() / opts_.classes[c].rate_pps);
    (void)add_flow(c, d, first, stop, rng_.fork(0xF10E00000000ULL + tag_counter_ + 1));
  }
}

std::uint64_t FlowEngine::poisson_draw(double lam) {
  if (lam <= 0.0) return 0;
  if (lam < 32.0) {
    // Knuth's product method — exact for small rates.
    const double limit = std::exp(-lam);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng_.uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation for large rates (batch arrivals at 1M-flow scale).
  const double v = rng_.normal(lam, std::sqrt(lam));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
}

std::size_t FlowEngine::memory_bytes() const {
  std::size_t total = 0;
  total += flows_.capacity() * sizeof(Flow);
  total += gap_ns_.capacity() * sizeof(std::int64_t);
  total += mean_gap_s_.capacity() * sizeof(double);
  total += heap_.capacity() * sizeof(HeapEntry);
  total += overflow_.capacity() * sizeof(std::uint32_t);
  total += free_list_.capacity() * sizeof(std::uint32_t);
  total += wheel_.capacity() * sizeof(std::vector<std::uint32_t>);
  for (const auto& bkt : wheel_) total += bkt.capacity() * sizeof(std::uint32_t);
  return total;
}

}  // namespace son::client
