// son_perf: one run of one whole-stack workload (sim -> net -> overlay ->
// crypto -> client), driven from outside through public calls only.
//
//   son_perf --workload flows_steady|flows_parallel|it_churn --seed N
//            --seconds S [--gate-only] [--spans PATH]
//
// A run sets the deployment up — build, settle, and create the workload's
// open-loop traffic and churn script — warms up, and then advances simulated
// time in fixed slices:
//
//   * the DETERMINISTIC part [from, det_end) has a fixed simulated length per
//     workload. Every gated output (delivery, latency, deadline, wire
//     overhead, digest) and every count comes from it, so they are a pure
//     function of (workload inputs, seed) — flows_parallel must reproduce
//     flows_steady bit for bit;
//   * the window then keeps going slice by slice until S wall seconds have
//     passed since it opened. After every slice, off the window's clock, a
//     short burst of a fixed reference loop (HostRef) measures the host's
//     pace at that moment. The headline rates are the window's simulated
//     seconds and deliveries divided by its wall time expressed in
//     reference seconds, so the pace of a shared host, which drifts by tens
//     of percent over minutes, cancels out. kSetups - 1 further set-ups,
//     timed and torn down at once, are spread over the window off its clock;
//     set-up time is the median of all kSetups, in reference seconds too.
//
// The unit-cost probes run after the window on the live state. Output is one
// JSON object on stdout; run.py turns it into the benchmark's result line.
//
// The traced build (SON_PERF_TRACED) also installs an obs::CounterRegistry,
// reads sim::alloc_count() and records spans around each call into a layer;
// the spans are written to --spans when the run ends.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/flow_engine.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "exp/json.hpp"
#include "net/internet.hpp"
#include "obs/counters.hpp"
#include "overlay/churn.hpp"
#include "overlay/it_fair.hpp"
#include "overlay/link_state.hpp"
#include "overlay/network.hpp"
#include "overlay/routing.hpp"
#include "overlay/sharded.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "topo/backbones.hpp"

#ifdef SON_PERF_TRACED
#include "sim/alloc_probe.hpp"
#endif

namespace {

using namespace son;
using namespace son::sim::literals;
using sim::Duration;
using sim::TimePoint;
using Clock = std::chrono::steady_clock;

#ifdef SON_PERF_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile q in [0, 1] with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

// ---- Spans -------------------------------------------------------------------
//
// Benchmark-side spans around each call into a layer (build, settle, the
// window and its slices, each probe). Kept in memory, written at exit; the
// untraced build compiles them to nothing.
class Spans {
 public:
  static constexpr int kNone = -1;

  int open(const char* name, int parent) {
    if constexpr (!kTraced) return kNone;
    spans_.push_back(Span{name, parent, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if constexpr (kTraced) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  bool write(const std::string& path, const std::string& run_id) const {
    exp::Json list = exp::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      exp::Json span = exp::Json::object();
      span["id"] = static_cast<std::uint64_t>(i);
      span["name"] = spans_[i].name;
      span["parent"] = spans_[i].parent;
      span["run_id"] = run_id;
      span["start_ns"] = spans_[i].start_ns;
      span["end_ns"] = spans_[i].end_ns;
      list.push_back(std::move(span));
    }
    exp::Json doc = exp::Json::object();
    doc["run_id"] = run_id;
    doc["spans"] = std::move(list);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string text = doc.dump();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on scope exit.
class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name, int parent)
      : spans_{spans}, id_{spans.open(name, parent)} {}
  ~SpanScope() {
    if (id_ != Spans::kNone) spans_.close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

// ---- Host reference --------------------------------------------------------------
//
// A fixed, self-contained event loop that shares no code with the simulator:
// a binary heap of timed events, each reading and rewriting a random 64-byte
// record of a 16 MiB table. Like the simulator it is bound by heap operations
// and cache misses, so its pace follows the host's pace for this kind of work
// (frequency, co-tenants on shared cores and caches). Bursts of it run between
// window slices, on as many threads as the workload has workers; the window's
// wall time is then expressed in reference seconds, each the time the host
// takes for kRefEventsPerRefSecond events on every such thread at once.
constexpr double kRefEventsPerRefSecond = 5e6;

/// One thread's share of the reference loop.
class RefLane {
 public:
  // Both buffers are allocated once, at their final size: freeing a grown
  // buffer would raise glibc's mmap threshold and change how the program's
  // own later allocations are placed.
  explicit RefLane(std::uint64_t state)
      : table_(kRecords), heap_{std::less<Ev>{}, reserved(kQueued)}, state_{state} {
    for (std::size_t i = 0; i < kRecords; ++i) table_[i].v[0] = i * kGolden;
    for (std::uint32_t i = 0; i < kQueued; ++i) heap_.push({next() % 1000, i});
  }

  void run(std::uint64_t events) {
    for (std::uint64_t e = 0; e < events; ++e) {
      const Ev ev = heap_.top();
      heap_.pop();
      Rec& r = table_[(ev.id * kGolden ^ next()) % kRecords];
      std::uint64_t h = r.v[0] ^ ev.t;
      for (std::uint64_t& x : r.v) h = (x += h) * 1099511628211ULL;
      heap_.push({ev.t + 1 + h % 997, ev.id});
    }
    sink_ = heap_.top().t;
  }

 private:
  static constexpr std::size_t kRecords = std::size_t{1} << 18;  // x 64 B = 16 MiB
  static constexpr std::uint32_t kQueued = 1u << 16;
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  struct Rec {
    std::array<std::uint64_t, 8> v{};
  };
  struct Ev {
    std::uint64_t t;
    std::uint32_t id;
    bool operator<(const Ev& o) const { return t > o.t; }  // min-heap on t
  };
  static std::vector<Ev> reserved(std::size_t n) {
    std::vector<Ev> v;
    v.reserve(n);
    return v;
  }
  std::uint64_t next() {  // xorshift64
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::vector<Rec> table_;
  std::priority_queue<Ev> heap_;
  std::uint64_t state_;
  volatile std::uint64_t sink_ = 0;  // keeps the loop from being elided
};

class HostRef {
 public:
  explicit HostRef(unsigned threads) {
    for (unsigned i = 0; i < threads; ++i) {
      lanes_.push_back(std::make_unique<RefLane>(0x243F6A8885A308D3ULL + i));
    }
  }

  /// Runs `events` events on every lane at once and adds them and the
  /// burst's wall time to the totals.
  void burst(std::uint64_t events) {
    const auto a = Clock::now();
    std::vector<std::thread> others;
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
      others.emplace_back([lane = lanes_[i].get(), events] { lane->run(events); });
    }
    lanes_[0]->run(events);
    for (std::thread& t : others) t.join();
    wall_s_ += seconds_between(a, Clock::now());
    events_ += events;
  }

  /// Reference events per wall second and lane over every burst so far.
  [[nodiscard]] double events_per_s() const { return ratio(static_cast<double>(events_), wall_s_); }
  /// `wall_s` of this host, at the pace the bursts measured, in reference seconds.
  [[nodiscard]] double ref_seconds(double wall_s) const {
    return wall_s * events_per_s() / kRefEventsPerRefSecond;
  }

 private:
  std::vector<std::unique_ptr<RefLane>> lanes_;
  std::uint64_t events_ = 0;
  double wall_s_ = 0.0;
};

// ---- Workload definitions ----------------------------------------------------

struct Workload {
  std::string name;
  bool sharded = true;
  unsigned workers = 1;
  Duration warmup;
  Duration send_window;   // deterministic sends: [from, from + send_window)
  Duration drain;         // deliveries of window sends counted until here
  Duration slice;         // wall-rate sample granularity
  Duration max_window;    // hard cap on the continued window (simulated)
  std::uint64_t ref_events = 0;  // HostRef events after each slice, ~5% of its wall time
};

std::optional<Workload> workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "flows_steady" || name == "flows_parallel") {
    w.workers = name == "flows_parallel" ? 2 : 1;
    w.warmup = 3_s;
    w.send_window = 24_s;
    w.drain = 2_s;
    w.slice = 250_ms;
    w.max_window = 600_s;
    w.ref_events = 20'000;
    return w;
  }
  if (name == "it_churn") {
    w.sharded = false;
    w.warmup = 2_s;
    w.send_window = 72_s;
    w.drain = 4_s;
    w.slice = 1_s;
    w.max_window = 900_s;
    w.ref_events = 40'000;
    return w;
  }
  return std::nullopt;
}

// FLOWS (bench_scaling): 12-site continental map, ~300k static flows. The
// backbone loses 1% per link direction, the value bench_churn and the sharded
// golden runs use on this map, so the recovery protocols have work to do.
constexpr std::size_t kFlowsTotal = 300'000;
constexpr double kFlowsBackboneLoss = 0.01;
constexpr overlay::VirtualPort kSinkPort = 9;
constexpr overlay::VirtualPort kEnginePort = 3;
constexpr overlay::VirtualPort kProbePort = 60;

std::vector<client::FlowClass> flows_classes() {
  client::FlowClass timely;
  timely.name = "timely";
  timely.spec.link_protocol = overlay::LinkProtocol::kRealtimeSimple;
  timely.spec.deadline = 150_ms;
  timely.payload_bytes = 200;
  timely.rate_pps = 0.3;
  timely.weight = 0.25;
  client::FlowClass reliable;
  reliable.name = "reliable";
  reliable.spec.link_protocol = overlay::LinkProtocol::kReliable;
  reliable.payload_bytes = 400;
  reliable.rate_pps = 0.2;
  reliable.weight = 0.25;
  client::FlowClass bulk;
  bulk.name = "bulk";
  bulk.payload_bytes = 150;
  bulk.rate_pps = 0.3;
  bulk.poisson = true;
  bulk.weight = 0.5;
  return {timely, reliable, bulk};
}

// IT_CHURN: intrusion-tolerant circulant C_32(1,2) with authenticated frames.
// Four source sites each run one engine carrying an explicit population of
// ten flows per class — IT-Priority timely (prio 200), IT-Priority bulk
// (prio 1; the three classes offer 2000 msg/s against the 1500 msg/s IT
// egress pacer) and IT-Reliable — toward a sink 6 positions around the ring.
// One engine per source keeps every flow's tag, and so its fair-queueing
// key, distinct. Sources and sinks are spared from churn; every other node
// crash-restarts.
constexpr std::size_t kItNodes = 32;
constexpr std::array<overlay::NodeId, 4> kItSources{0, 8, 16, 24};
constexpr overlay::NodeId kItSinkOffset = 6;
constexpr std::size_t kItFlowsPerClass = 10;
constexpr double kItEgressMsgsPerSec = 1500;
constexpr double kItChurnPerSec = 1.0;
constexpr Duration kItDownFor = 3_s;
constexpr Duration kItChurnBlock = 12_s;

std::vector<client::FlowClass> it_classes() {
  client::FlowClass timely;
  timely.name = "timely";
  timely.spec.link_protocol = overlay::LinkProtocol::kITPriority;
  timely.spec.priority = 200;
  timely.payload_bytes = 300;
  timely.rate_pps = 10.0;
  client::FlowClass bulk;
  bulk.name = "bulk";
  bulk.spec.link_protocol = overlay::LinkProtocol::kITPriority;
  bulk.spec.priority = 1;
  bulk.payload_bytes = 1200;
  bulk.rate_pps = 180.0;
  bulk.poisson = true;
  client::FlowClass reliable;
  reliable.name = "it_reliable";
  reliable.spec.link_protocol = overlay::LinkProtocol::kITReliable;
  reliable.payload_bytes = 400;
  reliable.rate_pps = 10.0;
  return {timely, bulk, reliable};
}

constexpr Duration kDeadline = 150_ms;

enum class Cls : std::uint8_t { kTimely = 0, kBulkIt, kOther };

Cls classify(const overlay::MessageHeader& h) {
  if (h.link_protocol == overlay::LinkProtocol::kRealtimeSimple) return Cls::kTimely;
  if (h.link_protocol == overlay::LinkProtocol::kITPriority) {
    return h.priority >= 100 ? Cls::kTimely : Cls::kBulkIt;
  }
  return Cls::kOther;
}

// ---- Deployment ----------------------------------------------------------------

/// Either a sharded continental deployment or a monolithic graph fixture,
/// behind the handful of calls the run loop needs. Member order makes the
/// simulator outlive everything that references it.
class Deployment {
 public:
  Deployment(const Workload& w, std::uint64_t seed) {
    if (w.sharded) {
      overlay::ShardedMapOptions opts;
      opts.workers = w.workers;
      // ~10^5 tagged flow keys must not grow per-flow session maps.
      opts.node.session_flow_accounting = false;
      opts.underlay.backbone_loss = kFlowsBackboneLoss;
      sharded_.reset(new overlay::ShardedMapFixture(
          overlay::build_sharded_map(topo::continental_us(), opts, seed)));
    } else {
      sim_ = std::make_unique<sim::Simulator>();
      overlay::GraphOptions gopts;
      gopts.node.authenticate = true;
      for (std::size_t i = 0; i < gopts.node.master_key.size(); ++i) {
        gopts.node.master_key[i] = static_cast<std::uint8_t>((seed >> (8 * (i % 8))) + i);
      }
      gopts.node.dead_origin_timeout = 2500_ms;
      gopts.node.link_protocols.it_egress_msgs_per_sec = kItEgressMsgsPerSec;
      graph_.reset(new overlay::GraphFixture(overlay::build_graph_fixture(
          *sim_, overlay::circulant_topology(kItNodes), gopts, sim::Rng{seed})));
    }
  }

  net::Internet& internet() { return sharded_ ? *sharded_->internet : *graph_->internet; }
  overlay::OverlayNetwork& overlay() { return sharded_ ? *sharded_->overlay : *graph_->overlay; }
  std::size_t size() { return overlay().size(); }
  sim::Simulator& node_sim(overlay::NodeId id) {
    return sharded_ ? sharded_->node_sim(id) : *sim_;
  }
  void settle() { overlay().settle(3_s); }
  void run_until(TimePoint t) {
    if (sharded_) {
      sharded_->kernel->run_until(t);
    } else {
      sim_->run_until(t);
    }
  }
  TimePoint now() { return sharded_ ? sharded_->kernel->now() : sim_->now(); }
  std::uint64_t events() {
    return sharded_ ? sharded_->kernel->events_fired() : sim_->events_fired();
  }
  std::uint64_t rounds() { return sharded_ ? sharded_->kernel->rounds() : 0; }
  std::uint64_t cross_pushes() {
    if (!sharded_) return 0;
    std::uint64_t total = 0;
    auto& k = *sharded_->kernel;
    const auto n = static_cast<sim::PartitionId>(k.num_partitions());
    for (sim::PartitionId s = 0; s < n; ++s) {
      for (sim::PartitionId d = 0; d < n; ++d) {
        if (const sim::ShardChannel* ch = k.channel(s, d)) total += ch->total_pushed();
      }
    }
    return total;
  }

 private:
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<overlay::GraphFixture> graph_;
  std::unique_ptr<overlay::ShardedMapFixture> sharded_;
};

// ---- Delivery accounting -----------------------------------------------------

/// Which sends count toward the deterministic outputs. Written by the
/// coordinator between run_until calls only; read by sink handlers.
struct CountWindow {
  TimePoint from;
  TimePoint to;
  bool open = true;  // closed at det_end: later deliveries no longer count
};

/// Per-node sink state. Handlers run on the node's partition, so each slot is
/// touched by one thread at a time.
struct Sink {
  std::uint64_t all_delivered = 0;  // every delivery (wall-rate numerator)
  std::uint64_t delivered = 0;      // window sends delivered by det_end
  std::uint64_t payload_bytes = 0;
  std::uint64_t timely_in_deadline = 0;
  std::uint64_t hash = kFnvOffset;
  sim::SampleSet timely_ms;
  sim::SampleSet bulk_it_ms;
};

struct EngineTotals {
  std::uint64_t sent = 0;
  std::uint64_t blocked = 0;
  std::uint64_t timely_attempted = 0;
};

/// The benchmark-side traffic: engines plus sinks on a deployment.
class Traffic {
 public:
  Traffic(Deployment& dep, const Workload& w, std::uint64_t seed, TimePoint start,
          TimePoint stop, const CountWindow& win)
      : sinks_(dep.size()) {
    for (overlay::NodeId i = 0; i < dep.size(); ++i) {
      Sink& s = sinks_[i];
      dep.overlay().node(i).connect(kSinkPort).set_handler(
          [&s, &win](const overlay::Message& m, Duration lat) {
            ++s.all_delivered;
            if (!win.open || m.hdr.origin_time < win.from || m.hdr.origin_time >= win.to) return;
            ++s.delivered;
            s.payload_bytes += m.payload_size();
            const double ms = lat.to_millis_f();
            switch (classify(m.hdr)) {
              case Cls::kTimely:
                s.timely_ms.add(ms);
                if (lat <= kDeadline) ++s.timely_in_deadline;
                break;
              case Cls::kBulkIt: s.bulk_it_ms.add(ms); break;
              case Cls::kOther: break;
            }
            fnv_mix(s.hash, m.hdr.flow_key);
            fnv_mix(s.hash, m.hdr.flow_seq);
            fnv_mix(s.hash, static_cast<std::uint64_t>(lat.ns()));
          });
    }
    if (w.sharded) {
      start_flows(dep, seed, start, stop);
    } else {
      start_it(dep, seed, start, stop);
    }
  }

  [[nodiscard]] EngineTotals totals() const {
    EngineTotals t;
    for (const Engine& e : engines_) {
      t.sent += e.engine->totals().sent;
      t.blocked += e.engine->totals().blocked;
      if (e.timely_cls != kNoTimely) {
        t.timely_attempted +=
            e.engine->sent_by_class(e.timely_cls) + e.engine->blocked_by_class(e.timely_cls);
      }
    }
    return t;
  }
  [[nodiscard]] std::uint64_t all_delivered() const {
    std::uint64_t n = 0;
    for (const Sink& s : sinks_) n += s.all_delivered;
    return n;
  }
  [[nodiscard]] const std::vector<Sink>& sinks() const { return sinks_; }
  [[nodiscard]] std::uint64_t peak_flows() const {
    std::uint64_t n = 0;
    for (const Engine& e : engines_) n += e.engine->peak_active_flows();
    return n;
  }
  [[nodiscard]] std::uint64_t memory_bytes() const {
    std::uint64_t n = 0;
    for (const Engine& e : engines_) n += e.engine->memory_bytes();
    return n;
  }
  /// One source's class mix as a curve-driven population (fire-cost probe).
  [[nodiscard]] const client::FlowEngineOptions& mix() const { return mix_; }
  /// Messages sent per payload size (crypto tag probe weighting).
  [[nodiscard]] std::map<std::size_t, std::uint64_t> sent_by_payload() const {
    std::map<std::size_t, std::uint64_t> out;
    for (const Engine& e : engines_) {
      for (std::size_t c = 0; c < e.payload_bytes.size(); ++c) {
        out[e.payload_bytes[c]] += e.engine->sent_by_class(c);
      }
    }
    return out;
  }

 private:
  static constexpr std::size_t kNoTimely = ~std::size_t{0};
  struct Engine {
    std::unique_ptr<client::FlowEngine> engine;
    std::size_t timely_cls = kNoTimely;
    std::vector<std::size_t> payload_bytes;
  };

  client::FlowEngine& add_engine(sim::Simulator& sim, overlay::ClientEndpoint& ep,
                                 const client::FlowEngineOptions& eo, sim::Rng rng) {
    Engine e;
    for (std::size_t c = 0; c < eo.classes.size(); ++c) {
      if (eo.classes[c].name == "timely") e.timely_cls = c;
      e.payload_bytes.push_back(eo.classes[c].payload_bytes);
    }
    e.engine = std::make_unique<client::FlowEngine>(sim, ep, eo, rng);
    engines_.push_back(std::move(e));
    return *engines_.back().engine;
  }

  void start_flows(Deployment& dep, std::uint64_t seed, TimePoint start, TimePoint stop) {
    const std::size_t n = dep.size();
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<overlay::NodeId>(i);
      client::FlowEngineOptions eo;
      eo.classes = flows_classes();
      eo.dests = {overlay::Destination::unicast(static_cast<overlay::NodeId>((i + 3) % n),
                                                kSinkPort),
                  overlay::Destination::unicast(static_cast<overlay::NodeId>((i + 6) % n),
                                                kSinkPort)};
      eo.flows = kFlowsTotal / n + (i == 0 ? kFlowsTotal % n : 0);
      eo.start = start + Duration::microseconds(113 * (static_cast<std::int64_t>(i) + 1));
      eo.stop = stop;
      if (i == 0) mix_ = eo;
      add_engine(dep.node_sim(id), dep.overlay().node(id).connect(kEnginePort), eo,
                 sim::component_stream(seed, static_cast<std::uint32_t>(i),
                                       overlay::kStreamFlowEngine, i))
          .start();
    }
  }

  void start_it(Deployment& dep, std::uint64_t seed, TimePoint start, TimePoint stop) {
    for (std::size_t s = 0; s < kItSources.size(); ++s) {
      const overlay::NodeId src = kItSources[s];
      const auto dst = static_cast<overlay::NodeId>((src + kItSinkOffset) % kItNodes);
      client::FlowEngineOptions eo;
      eo.classes = it_classes();
      eo.dests = {overlay::Destination::unicast(dst, kSinkPort)};
      eo.start = start;
      eo.stop = stop;
      if (s == 0) {
        // The fire-cost probe draws the same mix by weight (equal counts).
        mix_ = eo;
        mix_.flows = kItFlowsPerClass * eo.classes.size();
      }
      sim::Rng rng{seed, 0x17C0 + s};
      client::FlowEngine& engine = add_engine(
          dep.node_sim(src), dep.overlay().node(src).connect(kEnginePort), eo, rng.fork(0));
      for (std::size_t c = 0; c < eo.classes.size(); ++c) {
        const double gap_s = 1.0 / eo.classes[c].rate_pps;
        for (std::size_t f = 0; f < kItFlowsPerClass; ++f) {
          const TimePoint first = start + Duration::from_seconds_f(gap_s * rng.uniform());
          engine.add_flow(c, 0, first, stop, rng.fork(1 + c * kItFlowsPerClass + f));
        }
      }
      engine.start();
    }
  }

  std::vector<Sink> sinks_;
  std::vector<Engine> engines_;
  client::FlowEngineOptions mix_;
};

/// Crash-restart cycles over the non-spared nodes of the IT overlay: a
/// Poisson process of rate kItChurnPerSec conditioned on its count per block
/// (each kItChurnBlock holds exactly rate x block cycles at uniform times),
/// with victims taken in turn from a fresh shuffle of the eligible nodes on
/// every pass. The conditioning keeps the volume of churn, and which paths
/// it hits, nearly equal across seeds; a node still down at its turn is
/// passed over.
std::size_t schedule_it_churn(overlay::OverlayNetwork& net, std::uint64_t seed, TimePoint from,
                              TimePoint until) {
  std::vector<bool> spared(kItNodes, false);
  for (const overlay::NodeId s : kItSources) {
    spared[s] = true;
    spared[(s + kItSinkOffset) % kItNodes] = true;
  }
  std::vector<overlay::NodeId> order;
  for (overlay::NodeId i = 0; i < kItNodes; ++i) {
    if (!spared[i]) order.push_back(i);
  }
  std::vector<TimePoint> down_until(kItNodes, TimePoint{});
  overlay::ChurnScript churn{net};
  sim::Rng rng{seed, 0xC4A2};
  const auto per_block =
      static_cast<std::size_t>(std::lround(kItChurnPerSec * kItChurnBlock.to_seconds_f()));
  std::size_t pos = order.size();
  std::size_t cycles = 0;
  std::vector<TimePoint> at(per_block);
  for (TimePoint block = from; block < until; block += kItChurnBlock) {
    for (TimePoint& t : at) t = block + kItChurnBlock * rng.uniform();
    std::sort(at.begin(), at.end());
    for (const TimePoint t : at) {
      if (t >= until) break;
      for (std::size_t tries = 0; tries < order.size(); ++tries) {
        if (pos == order.size()) {
          rng.shuffle(order);
          pos = 0;
        }
        const overlay::NodeId victim = order[pos++];
        if (down_until[victim] > t) continue;
        churn.crash_recover(t, victim, kItDownFor);
        down_until[victim] = t + kItDownFor;
        ++cycles;
        break;
      }
    }
  }
  return cycles;
}

// ---- Layer snapshots -----------------------------------------------------------

/// Counters read at one instant; deltas between two snapshots give the
/// per-layer counts of the deterministic part.
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t cross_pushes = 0;
  std::uint64_t allocs = 0;
  net::Internet::Counters net;
  std::uint64_t backbone_bytes = 0;
  overlay::NodeStats node;
  std::map<std::string, std::uint64_t> registry;
  EngineTotals engines;
};

Snapshot take_snapshot(Deployment& dep, const Traffic& traffic) {
  Snapshot s;
  s.events = dep.events();
  s.rounds = dep.rounds();
  s.cross_pushes = dep.cross_pushes();
#ifdef SON_PERF_TRACED
  s.allocs = sim::alloc_count();
#endif
  s.net = dep.internet().counters();
  s.backbone_bytes = dep.internet().backbone_bytes_carried();
  for (overlay::NodeId i = 0; i < dep.size(); ++i) {
    const overlay::NodeStats& n = dep.overlay().node(i).stats();
    s.node.frames_sent += n.frames_sent;
    s.node.lsa_floods += n.lsa_floods;
    s.node.no_route += n.no_route;
    s.node.dedup_dropped += n.dedup_dropped;
    s.node.protocol_drops += n.protocol_drops;
    s.node.send_blocked += n.send_blocked;
    s.node.link_failovers += n.link_failovers;
    s.node.origin_evictions += n.origin_evictions;
    s.node.peer_restarts_seen += n.peer_restarts_seen;
  }
  if (const obs::CounterRegistry* reg = obs::CounterRegistry::current()) {
    for (const auto& [name, v] : reg->entries()) s.registry[name] = v;
  }
  s.engines = traffic.totals();
  return s;
}

std::uint64_t registry_delta(const Snapshot& a, const Snapshot& b, const std::string& name) {
  const auto ia = a.registry.find(name);
  const auto ib = b.registry.find(name);
  const std::uint64_t va = ia == a.registry.end() ? 0 : ia->second;
  const std::uint64_t vb = ib == b.registry.end() ? 0 : ib->second;
  return vb - va;
}

/// IT endpoint stats summed over every live endpoint (since it was created).
struct ItStats {
  std::uint64_t evicted_low_priority = 0;
  std::uint64_t rejected_full = 0;
};

ItStats it_stats(Deployment& dep) {
  ItStats out;
  for (overlay::NodeId i = 0; i < dep.size(); ++i) {
    overlay::OverlayNode& node = dep.overlay().node(i);
    for (const overlay::LinkBit b : node.link_bits()) {
      for (const auto proto : {overlay::LinkProtocol::kITPriority,
                               overlay::LinkProtocol::kITReliable}) {
        const auto* ep = dynamic_cast<const overlay::ItEndpointBase*>(node.find_endpoint(b, proto));
        if (ep == nullptr) continue;
        out.evicted_low_priority += ep->stats().evicted_low_priority;
        out.rejected_full += ep->stats().rejected_full;
      }
    }
  }
  return out;
}

// ---- Unit-cost probes (after the window, on the live state) ----------------------

/// Written with every probe's result so the timed loops cannot be elided.
volatile std::uint64_t g_probe_sink = 0;

template <typename F>
double median_ns_per_op(int reps, std::uint64_t ops_per_rep, F&& body) {
  std::vector<double> per_op;
  per_op.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto a = Clock::now();
    body();
    const auto b = Clock::now();
    per_op.push_back(seconds_between(a, b) * 1e9 / static_cast<double>(ops_per_rep));
  }
  return median(per_op);
}

/// Router::next_hop over every (node, destination) pair of the live overlay.
double probe_next_hop_ns(Deployment& dep) {
  const auto n = static_cast<overlay::NodeId>(dep.size());
  constexpr int kSweeps = 400;
  std::uint64_t sink = 0;
  const auto sweep = [&]() {
    for (int k = 0; k < kSweeps; ++k) {
      for (overlay::NodeId i = 0; i < n; ++i) {
        overlay::Router& r = dep.overlay().node(i).router();
        for (overlay::NodeId d = 0; d < n; ++d) {
          if (d != i) sink += r.next_hop(d);
        }
      }
    }
  };
  sweep();  // refresh any stale next-hop memo outside the timing
  const double ns =
      median_ns_per_op(15, static_cast<std::uint64_t>(kSweeps) * n * (n - 1u), sweep);
  g_probe_sink = sink;
  return ns;
}

/// TopologyDb::apply + next-hop refresh over the workload's own topology, on
/// advertisements replayed from the live nodes' link health.
double probe_lsa_apply_us(Deployment& dep) {
  const auto n = static_cast<overlay::NodeId>(dep.size());
  std::vector<overlay::LinkStateAd> ads(n);
  for (overlay::NodeId i = 0; i < n; ++i) {
    overlay::OverlayNode& node = dep.overlay().node(i);
    ads[i].origin = i;
    for (const overlay::LinkBit b : node.link_bits()) {
      const auto h = node.link_health(b);
      ads[i].links.push_back({b, h.up, std::max(0.1, h.srtt.to_millis_f() / 2.0),
                              h.loss_estimate});
    }
  }
  overlay::TopologyDb db{dep.overlay().designed_topology()};
  overlay::GroupDb groups{n};
  overlay::Router router{0, db, groups};
  const std::vector<overlay::LinkStateAd> measured = ads;
  std::uint64_t seq = 1;
  for (auto& ad : ads) {
    ad.seq = seq;
    db.apply(ad);
  }
  std::uint64_t sink = 0;
  constexpr int kApplies = 2000;
  std::uint64_t k = 0;
  const auto body = [&]() {
    for (int j = 0; j < kApplies; ++j, ++k) {
      // Each origin's replayed ad alternates between its measured latencies
      // and 1.5x them, so every apply is a real change.
      overlay::LinkStateAd& ad = ads[k % n];
      const double factor = (k / n) % 2 == 0 ? 1.5 : 1.0;
      for (std::size_t l = 0; l < ad.links.size(); ++l) {
        ad.links[l].latency_ms = measured[k % n].links[l].latency_ms * factor;
      }
      ad.seq = ++seq;
      db.apply(ad);
      for (overlay::NodeId d = 1; d < n; ++d) sink += router.next_hop(d);
    }
  };
  const double ns = median_ns_per_op(9, kApplies, body);
  g_probe_sink = sink;
  return ns / 1000.0;
}

/// HmacKey tag of (64-byte auth head || payload) at the workload's frame
/// sizes, weighted by how many messages of each size were sent.
double probe_tag_ns(const std::map<std::size_t, std::uint64_t>& sent_by_payload) {
  const crypto::Key master{};
  const auto key = crypto::derive_pair_key(master, 0, 1);
  const crypto::HmacKey mac{std::span<const std::uint8_t>{key}};
  std::array<std::uint8_t, overlay::kAuthHeadBytes> head{};
  for (std::size_t i = 0; i < head.size(); ++i) head[i] = static_cast<std::uint8_t>(i * 7);
  double weighted = 0.0;
  std::uint64_t total = 0;
  std::uint8_t acc = 0;
  for (const auto& [size, count] : sent_by_payload) {
    const std::vector<std::uint8_t> body(size, 0xAB);
    constexpr int kTags = 20000;
    const double ns = median_ns_per_op(9, kTags, [&]() {
      for (int j = 0; j < kTags; ++j) {
        head[0] = static_cast<std::uint8_t>(j);
        acc ^= mac.tag(head, body)[0];
      }
    });
    weighted += ns * static_cast<double>(count == 0 ? 1 : count);
    total += count == 0 ? 1 : count;
  }
  g_probe_sink = acc;
  return ratio(weighted, static_cast<double>(total));
}

/// A standalone FlowEngine with the workload's class mix on a private
/// Simulator, sends captured by the public send hook: the client layer's cost
/// per send. The endpoint is required by the constructor but never called.
double probe_fire_ns(overlay::ClientEndpoint& unused_endpoint,
                     const client::FlowEngineOptions& mix, std::uint64_t seed) {
  constexpr std::uint64_t kMinSends = 100'000;
  std::vector<double> per_send;
  for (int r = 0; r < 5; ++r) {
    sim::Simulator psim;
    client::FlowEngineOptions eo = mix;
    eo.start = TimePoint{};
    eo.stop = TimePoint{} + 100'000_s;
    std::uint64_t sends = 0;
    client::FlowEngine engine{psim, unused_endpoint, eo, sim::Rng{seed, 0xF1E}};
    engine.set_send_hook(
        [](void* ctx, std::size_t, const overlay::Destination&, TimePoint) {
          ++*static_cast<std::uint64_t*>(ctx);
          return true;
        },
        &sends);
    engine.start();
    psim.run_until(TimePoint{} + 1_s);  // activation batch, outside the timing
    const std::uint64_t s0 = sends;
    const auto a = Clock::now();
    while (sends - s0 < kMinSends) psim.run_for(1_s);
    const auto b = Clock::now();
    per_send.push_back(seconds_between(a, b) * 1e9 / static_cast<double>(sends - s0));
  }
  return median(per_send);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double resident_mb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%*ld %ld", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---- The run -----------------------------------------------------------------

/// Set-ups per run; setup_s is their median, in reference seconds at the
/// window's host pace. The first carries the run; the others are spread
/// evenly over the measured window, between slices and off its clock, so the
/// median samples the machine over the same stretch as that pace.
constexpr int kSetups = 25;

/// A deployment with its open-loop traffic and churn script, as one set-up
/// leaves it. Not movable: the sink handlers hold &win.
struct Stack {
  std::unique_ptr<Deployment> dep;
  CountWindow win;
  std::unique_ptr<Traffic> traffic;  // declared last: destroyed first
  TimePoint base;                    // end of warm-up
  TimePoint det_end;                 // end of the deterministic part
  TimePoint hard_end;
  std::size_t churn_cycles = 0;
};

struct SetupTimes {
  std::vector<double> build_s, settle_s, traffic_s, setup_s;
};

/// One set-up: build + settle the deployment, then create the traffic (open
/// loop from the settled time; the deterministic part follows warm-up) and
/// the churn script. Appends each step's wall time to `times`.
std::unique_ptr<Stack> set_up(const Workload& w, std::uint64_t seed, Spans& spans, int parent,
                              SetupTimes& times) {
  auto st = std::make_unique<Stack>();
  const SpanScope setup{spans, "setup", parent};
  const auto a = Clock::now();
  {
    const SpanScope s{spans, "setup.build", setup.id()};
    st->dep = std::make_unique<Deployment>(w, seed);
  }
  const auto b = Clock::now();
  {
    const SpanScope s{spans, "setup.settle", setup.id()};
    st->dep->settle();
  }
  const auto c = Clock::now();
  {
    const SpanScope s{spans, "setup.traffic", setup.id()};
    const TimePoint t_start = st->dep->now();
    st->base = t_start + w.warmup - Duration::nanoseconds(1);
    st->win.from = st->base + Duration::nanoseconds(1);
    st->win.to = st->win.from + w.send_window;
    st->det_end = st->base + w.send_window + w.drain;
    st->hard_end = st->base + w.max_window;
    st->traffic =
        std::make_unique<Traffic>(*st->dep, w, seed, t_start, st->hard_end + 10_s, st->win);
    if (!w.sharded) {
      st->churn_cycles =
          schedule_it_churn(st->dep->overlay(), seed, t_start + 500_ms, st->hard_end);
    }
  }
  const auto d = Clock::now();
  times.build_s.push_back(seconds_between(a, b));
  times.settle_s.push_back(seconds_between(b, c));
  times.traffic_s.push_back(seconds_between(c, d));
  times.setup_s.push_back(seconds_between(a, d));
  return st;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool gate_only = false;
  std::string spans_path;
};

int usage() {
  std::fputs(
      "usage: son_perf --workload flows_steady|flows_parallel|it_churn --seed N\n"
      "                --seconds S [--gate-only] [--spans PATH]\n",
      stderr);
  return 2;
}

int run(const Args& args, const Workload& w) {
  Spans spans;
  const int root = spans.open("run", Spans::kNone);

  // The reference table stays resident for the whole run, so taking its
  // pages out of the peak leaves the program's own peak.
  const double rss_before_ref = resident_mb();
  HostRef host_ref{w.workers};
  const double ref_mb = resident_mb() - rss_before_ref;

  SetupTimes setup;
  const std::unique_ptr<Stack> stack = set_up(w, args.seed, spans, root, setup);
  Deployment& dep = *stack->dep;
  const Traffic& traffic = *stack->traffic;
  CountWindow& win = stack->win;
  const TimePoint base = stack->base;
  const TimePoint det_end = stack->det_end;
  const TimePoint hard_end = stack->hard_end;
  const int extra_setups = args.gate_only ? 0 : kSetups - 1;
  int setups_done = 0;
  const auto sample_setup = [&]() {
    set_up(w, args.seed, spans, root, setup);  // timed, then torn down at once
    ++setups_done;
  };

  {
    const SpanScope s{spans, "warmup", root};
    dep.run_until(base);
  }
  const Snapshot snap_a = take_snapshot(dep, traffic);
  EngineTotals at_to;
  Snapshot snap_c;

  // The measured window, slice by slice. Its wall time counts run_until only.
  const std::uint64_t window_delivered_from = traffic.all_delivered();
  TimePoint t = base;
  double window_wall_s = 0.0;
  double det_wall_s = 0.0;
  const auto window_start = Clock::now();
  {
    const SpanScope window{spans, "window", root};
    bool det_done = false;
    while (true) {
      const TimePoint next = t + w.slice;
      {
        const SpanScope s{spans, "window.slice", window.id()};
        const auto a = Clock::now();
        // Checkpoints inside the slice: the end of the send window and det_end.
        if (win.to - Duration::nanoseconds(1) > t && win.to - Duration::nanoseconds(1) <= next) {
          dep.run_until(win.to - Duration::nanoseconds(1));
          at_to = traffic.totals();
        }
        dep.run_until(next);
        window_wall_s += seconds_between(a, Clock::now());
      }
      host_ref.burst(w.ref_events);
      t = next;
      if (!det_done && t >= det_end) {
        win.open = false;
        snap_c = take_snapshot(dep, traffic);
        det_wall_s = window_wall_s;
        det_done = true;
        if (args.gate_only) break;
      }
      const double elapsed = seconds_between(window_start, Clock::now());
      if (setups_done < extra_setups &&
          elapsed >= args.seconds * (setups_done + 1) / static_cast<double>(kSetups)) {
        sample_setup();
      }
      if (det_done && (elapsed >= args.seconds || t + w.slice > hard_end)) break;
    }
  }
  const double window_sim_s = (t - base).to_seconds_f();
  const auto window_delivered =
      static_cast<double>(traffic.all_delivered() - window_delivered_from);
  while (setups_done < extra_setups) sample_setup();  // the window ended early
  const double rss_mb = peak_rss_mb() - ref_mb;
  const double window_ref_s = host_ref.ref_seconds(window_wall_s);

  // Deterministic outputs over the window's sends.
  std::uint64_t delivered = 0, payload_bytes = 0, timely_in_deadline = 0;
  std::uint64_t digest = kFnvOffset;
  sim::SampleSet timely_ms, bulk_it_ms;
  for (const Sink& s : traffic.sinks()) {
    delivered += s.delivered;
    payload_bytes += s.payload_bytes;
    timely_in_deadline += s.timely_in_deadline;
    fnv_mix(digest, s.hash);
    timely_ms.merge(s.timely_ms);
    bulk_it_ms.merge(s.bulk_it_ms);
  }
  const std::uint64_t attempted =
      (at_to.sent + at_to.blocked) - (snap_a.engines.sent + snap_a.engines.blocked);
  const std::uint64_t refused = at_to.blocked - snap_a.engines.blocked;
  const std::uint64_t timely_attempted =
      at_to.timely_attempted - snap_a.engines.timely_attempted;
  const double bb_bytes = static_cast<double>(snap_c.backbone_bytes - snap_a.backbone_bytes);

  exp::Json gate = exp::Json::object();
  gate["delivery_ratio"] = ratio(static_cast<double>(delivered), static_cast<double>(attempted));
  // The mean, not the median: on the uncongested flows map the median timely
  // latency is one path's propagation delay, the same for every seed, while
  // the mean follows the seed's mix of paths and recovered losses.
  gate["timely_mean_ms"] = timely_ms.mean();
  gate["timely_p99_ms"] = timely_ms.p99();
  gate["deadline_met_ratio"] = ratio(static_cast<double>(timely_in_deadline),
                                       static_cast<double>(timely_attempted));
  gate["wire_overhead_ratio"] = ratio(bb_bytes, static_cast<double>(payload_bytes));
  gate["digest32"] = static_cast<double>((digest >> 32) ^ (digest & 0xFFFFFFFFULL));

  exp::Json check = exp::Json::object();
  check["attempted"] = static_cast<double>(attempted);
  check["refused"] = static_cast<double>(refused);
  check["delivered"] = static_cast<double>(delivered);
  check["timely_attempted"] = static_cast<double>(timely_attempted);
  check["timely_samples"] = static_cast<double>(timely_ms.size());
  check["timely_in_deadline"] = static_cast<double>(timely_in_deadline);
  {
    const net::Internet::Counters& c = dep.internet().counters();
    std::uint64_t dropped = 0;
    for (std::size_t r = 0; r < net::kNumDropReasons; ++r) dropped += c.dropped[r];
    check["net_sent"] = static_cast<double>(c.sent);
    check["net_delivered"] = static_cast<double>(c.delivered);
    check["net_dropped"] = static_cast<double>(dropped);
  }
  check["churn_cycles"] = static_cast<double>(stack->churn_cycles);

  exp::Json out = exp::Json::object();
  out["workload"] = w.name;
  out["seed"] = static_cast<double>(args.seed);
  out["gate"] = std::move(gate);
  out["check"] = std::move(check);
  if (args.gate_only) {
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }

  exp::Json e2e = exp::Json::object();
  e2e["setup_s"] = host_ref.ref_seconds(median(setup.setup_s));
  e2e["sim_s_per_ref_s"] = ratio(window_sim_s, window_ref_s);
  e2e["msgs_per_ref_s"] = ratio(window_delivered, window_ref_s);
  e2e["peak_rss_mb"] = rss_mb;
  out["e2e"] = std::move(e2e);

  // Per-layer counts over the deterministic part [from, det_end).
  exp::Json layer = exp::Json::object();
  const double events = static_cast<double>(snap_c.events - snap_a.events);
  const double rounds = static_cast<double>(snap_c.rounds - snap_a.rounds);
  const double dmsgs = static_cast<double>(delivered);
  layer["sim.events"] = events;
  layer["sim.sim_s_per_wall_s"] = ratio(window_sim_s, window_wall_s);
  layer["host.ref_events_per_s"] = host_ref.events_per_s();
  layer["sim.run_wall_s"] = det_wall_s;
  layer["sim.events_per_wall_s"] = ratio(events, det_wall_s);
  layer["sim.rounds"] = rounds;
  layer["sim.events_per_round"] = ratio(events, rounds);
  layer["sim.cross_pushes"] = static_cast<double>(snap_c.cross_pushes - snap_a.cross_pushes);
  if constexpr (kTraced) {
    layer["sim.allocs_per_event"] = ratio(static_cast<double>(snap_c.allocs - snap_a.allocs),
                                            events);
  }
  const double net_sent = static_cast<double>(snap_c.net.sent - snap_a.net.sent);
  layer["net.sent"] = net_sent;
  layer["net.delivered"] = static_cast<double>(snap_c.net.delivered - snap_a.net.delivered);
  for (std::size_t r = 1; r < net::kNumDropReasons; ++r) {
    layer[std::string("net.dropped.") + net::to_string(static_cast<net::DropReason>(r))] = static_cast<double>(snap_c.net.dropped[r] - snap_a.net.dropped[r]);
  }
  layer["net.datagrams_per_msg"] = ratio(net_sent, dmsgs);
  layer["net.backbone_bytes"] = bb_bytes;
  const auto node_delta = [&](std::uint64_t overlay::NodeStats::*field) {
    return static_cast<double>(snap_c.node.*field - snap_a.node.*field);
  };
  layer["overlay.frames_sent"] = node_delta(&overlay::NodeStats::frames_sent);
  layer["overlay.frames_per_msg"] = ratio(node_delta(&overlay::NodeStats::frames_sent), dmsgs);
  layer["overlay.lsa_floods"] = node_delta(&overlay::NodeStats::lsa_floods);
  layer["overlay.no_route"] = node_delta(&overlay::NodeStats::no_route);
  layer["overlay.dedup_dropped"] = node_delta(&overlay::NodeStats::dedup_dropped);
  layer["overlay.protocol_drops"] = node_delta(&overlay::NodeStats::protocol_drops);
  layer["overlay.send_blocked"] = node_delta(&overlay::NodeStats::send_blocked);
  layer["overlay.link_failovers"] = node_delta(&overlay::NodeStats::link_failovers);
  layer["overlay.membership.origin_evictions"] = node_delta(&overlay::NodeStats::origin_evictions);
  layer["overlay.peer_restarts_seen"] = node_delta(&overlay::NodeStats::peer_restarts_seen);
  for (const char* name : {"overlay.reliable.retransmissions", "overlay.reliable.nack_batches",
                           "overlay.reorder.held", "crypto.sign_ops", "crypto.verify_ops"}) {
    if constexpr (kTraced) layer[name] = registry_delta(snap_a, snap_c, name);
  }
  const ItStats its = it_stats(dep);
  layer["overlay.it.evicted_low_priority"] = static_cast<double>(its.evicted_low_priority);
  layer["overlay.it.rejected_full"] = static_cast<double>(its.rejected_full);
  layer["overlay.it.bulk_p99_ms"] = bulk_it_ms.p99();
  const double client_sent = static_cast<double>(snap_c.engines.sent - snap_a.engines.sent);
  layer["client.sent"] = client_sent;
  layer["client.blocked"] = static_cast<double>(snap_c.engines.blocked - snap_a.engines.blocked);
  layer["client.peak_flows"] = static_cast<double>(traffic.peak_flows());
  layer["client.bytes_per_flow"] = ratio(static_cast<double>(traffic.memory_bytes()),
                                           static_cast<double>(traffic.peak_flows()));
  layer["client.timely_samples"] = static_cast<double>(timely_ms.size());
  layer["setup.build_s"] = median(setup.build_s);
  layer["setup.settle_s"] = median(setup.settle_s);
  layer["setup.traffic_s"] = median(setup.traffic_s);

  // Unit-cost probes, outside the measured window.
  {
    const SpanScope probes{spans, "probes", root};
    double v = 0.0;
    {
      const SpanScope s{spans, "probe.overlay.next_hop", probes.id()};
      v = probe_next_hop_ns(dep);
    }
    layer["overlay.route.next_hop_ns"] = v;
    {
      const SpanScope s{spans, "probe.overlay.lsa_apply", probes.id()};
      v = probe_lsa_apply_us(dep);
    }
    layer["overlay.route.lsa_apply_us"] = v;
    {
      const SpanScope s{spans, "probe.crypto.tag", probes.id()};
      v = probe_tag_ns(traffic.sent_by_payload());
    }
    layer["crypto.tag_ns"] = v;
    if constexpr (kTraced) {
      const double ops = static_cast<double>(registry_delta(snap_a, snap_c, "crypto.sign_ops") +
                                             registry_delta(snap_a, snap_c, "crypto.verify_ops"));
      layer["crypto.busy_share"] = ratio(ops * v * 1e-9, det_wall_s);
    }
    {
      const SpanScope s{spans, "probe.client.fire", probes.id()};
      v = probe_fire_ns(dep.overlay().node(0).connect(kProbePort), traffic.mix(), args.seed);
    }
    layer["client.fire_ns"] = v;
    layer["client.busy_share"] = ratio(client_sent * v * 1e-9, det_wall_s);
  }
  out["layer"] = std::move(layer);

  if (root != Spans::kNone) spans.close(root);
  if (kTraced && !args.spans_path.empty()) {
    const std::string run_id = w.name + "-" + std::to_string(args.seed);
    if (!spans.write(args.spans_path, run_id)) {
      std::fprintf(stderr, "son_perf: cannot write spans to %s\n", args.spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--spans" && has_value) {
      args.spans_path = argv[++i];
    } else if (a == "--gate-only") {
      args.gate_only = true;
    } else {
      return usage();
    }
  }
  const auto w = workload_by_name(args.workload);
  if (!w || args.seconds <= 0.0) return usage();
  if constexpr (kTraced) {
    obs::CounterRegistry registry;
    const obs::ScopedCounterRegistry scope{registry};
    return run(args, *w);
  }
  return run(args, *w);
}
