// Flyweight aggregate client model: the one traffic source, from a single
// CBR or Poisson flow up to millions of concurrent flows per trial.
//
// An engine keeps each flow as ONE row of a single table (next-fire time,
// stop time, scheduling-order stamp, gap stream, sequence number, remaining
// packet budget, tag, destination index and service class: 56 bytes, so a
// fire touches one row instead of a column per field; no per-flow
// allocation, no per-flow sim::EventId). What depends only on the class —
// the CBR gap and the Poisson mean — lives in per-class arrays. ONE
// calendar/bucket-wheel timer per engine drives the table. Flow
// populations are either built explicitly (add_flow; the one-flow
// constructor is the single-flow case) or drawn as batched arrivals from a
// configurable arrival-rate curve (constant, diurnal wave, flash-crowd
// spike) with exponential flow lifetimes.
//
// Sends are injected through the existing overlay::ClientEndpoint, so every
// service class (reliable / timely / intrusion-tolerant), the routing
// schemes, and the sharded kernel work unchanged — deploy one engine per
// partition, scheduled on that partition's simulator, with RNG from
// sim::component_stream.
//
// Determinism contract: with `legacy_identity` set and an explicit flow
// population, N one-flow engines are BIT-IDENTICAL to one N-flow engine
// (same send instants, same send order at shared instants, same flow
// identities), and both reproduce the recorded constants of the per-object
// senders this engine replaced — pinned by the FlowEngine golden-run tests.
// The wheel's scheduling-order stamps reproduce the event queue's (time, seq)
// tie-breaking exactly.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "overlay/node.hpp"
#include "sim/hot.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timers.hpp"

namespace son::client {

/// Arrival-rate curve shaping flow activations over the engine's lifetime.
struct LoadCurve {
  enum class Kind : std::uint8_t { kConstant = 0, kDiurnal, kFlashCrowd };
  Kind kind = Kind::kConstant;

  /// kDiurnal: arrival rate swings base * (1 + amplitude * sin(2πt/period)).
  sim::Duration period = sim::Duration::seconds(60);
  double amplitude = 0.5;

  /// kFlashCrowd: rate is base outside the spike and base * spike_factor
  /// inside [start + spike_after, start + spike_after + spike_width).
  sim::Duration spike_after = sim::Duration::seconds(1);
  sim::Duration spike_width = sim::Duration::seconds(1);
  double spike_factor = 10.0;

  /// Curve by CLI name ("const", "diurnal", "flash") with the default shape
  /// parameters above; nullopt for unknown names. The exp::Options
  /// --load-curve validation accepts exactly these names.
  [[nodiscard]] static std::optional<LoadCurve> from_name(const std::string& name);

  /// Arrival-rate multiplier at `t` for an engine started at `start`.
  [[nodiscard]] double scale_at(sim::TimePoint t, sim::TimePoint start) const;
};

/// One service-class row shared by many flows (flyweight intrinsic state).
struct FlowClass {
  std::string name = "cbr";
  overlay::ServiceSpec spec{};  // {}: designated initializers may omit it (-Wextra)
  std::size_t payload_bytes = 200;
  double rate_pps = 1.0;  // per-flow packet rate
  bool poisson = false;   // exponential inter-packet gaps vs fixed (CBR)
  /// Retire the flow after this many packets; 0 = live until its stop time.
  std::uint32_t packet_budget = 0;
  /// Share of curve-driven activations landing in this class.
  double weight = 1.0;
};

struct FlowEngineOptions {
  std::vector<FlowClass> classes;           // >= 1
  std::vector<overlay::Destination> dests;  // >= 1; drawn uniformly per activation
  /// Steady-state population target for curve-driven activation. 0 = the
  /// population is built explicitly with add_flow().
  std::size_t flows = 0;
  LoadCurve curve;
  sim::TimePoint start;
  /// Curve-driven flows: no packets and no activations at/after this time.
  /// A flow from add_flow() carries its own stop instead.
  sim::TimePoint stop;
  /// Mean flow lifetime (exponential) for curve-driven churn. zero() = the
  /// initial population lives until `stop` and no later arrivals occur
  /// (only valid with a constant curve — DCHECKed at start()).
  sim::Duration mean_lifetime = sim::Duration::zero();
  /// Batched-arrival cadence: activations are drawn per batch as
  /// Poisson(rate(t) * arrival_batch).
  sim::Duration arrival_batch = sim::Duration::milliseconds(10);
  /// Bucket-wheel geometry; the wheel covers bucket_width * buckets of
  /// lookahead, gaps beyond it spill into the overflow list.
  sim::Duration bucket_width = sim::Duration::milliseconds(1);
  std::size_t buckets = 1024;
  /// Extra flow-slot capacity reserved beyond `flows` so bursty curves do
  /// not grow the tables mid-run. 0 = flows / 2 + 1024.
  std::size_t capacity_headroom = 0;
  /// Send through ClientEndpoint::send() — the endpoint's own flow key and
  /// sequence numbers, so every flow of the endpoint shares one identity.
  /// Default (false) uses the flyweight send_flow() path, which keeps zero
  /// per-flow state in the endpoint: every flow gets a distinct tag and the
  /// engine holds its sequence numbers in the flow rows.
  bool legacy_identity = false;
};

class FlowEngine {
 public:
  /// `sim` must be the simulator `client`'s node runs on (in a sharded
  /// deployment: the partition simulator — fixture.node_sim(id)). `rng`
  /// drives activation draws and per-flow gap streams; shard deployments
  /// derive it via sim::component_stream for layout independence.
  FlowEngine(sim::Simulator& sim, overlay::ClientEndpoint& client, FlowEngineOptions opts,
             sim::Rng rng);
  /// One flow of class `cls` to `dest`, armed at once: first packet at
  /// `first`, last strictly before `stop`, sent with `legacy_identity`.
  /// `rng` is the flow's gap stream (poisson classes only).
  FlowEngine(sim::Simulator& sim, overlay::ClientEndpoint& client, const FlowClass& cls,
             const overlay::Destination& dest, sim::TimePoint first, sim::TimePoint stop,
             sim::Rng rng = sim::Rng{});
  FlowEngine(const FlowEngine&) = delete;
  FlowEngine& operator=(const FlowEngine&) = delete;

  /// Explicitly adds one flow: first packet at `first` (clamped to now),
  /// last strictly before `stop`. `rng` seeds the flow's own gap stream
  /// (poisson classes); the engine's own stream is not drawn from. Returns
  /// the flow's slot index.
  std::uint32_t add_flow(std::size_t cls, std::size_t dest, sim::TimePoint first,
                         sim::TimePoint stop, sim::Rng rng);

  /// Arms the engine. With opts.flows > 0 the initial population activates
  /// as one batch at opts.start (first fires phase-staggered across one
  /// inter-packet gap per flow) and curve-driven arrival batches follow.
  void start();

  struct Totals {
    std::uint64_t sent = 0;
    std::uint64_t blocked = 0;   // ClientEndpoint refused (backpressure/no route)
    std::uint64_t activated = 0;
    std::uint64_t retired = 0;
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }
  [[nodiscard]] std::uint64_t sent_by_class(std::size_t cls) const {
    return sent_by_class_.at(cls);
  }
  [[nodiscard]] std::uint64_t blocked_by_class(std::size_t cls) const {
    return blocked_by_class_.at(cls);
  }
  [[nodiscard]] std::size_t active_flows() const { return active_; }
  [[nodiscard]] std::size_t peak_active_flows() const { return peak_active_; }

  /// Bytes reserved by the flow rows, wheel, heap, overflow and free list
  /// (capacities, not sizes): the engine's actual memory-per-flow footprint.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// One flow's state, one row of the flow table.
  struct Flow {
    std::int64_t fire_ns;
    std::int64_t stop_ns;
    std::uint64_t order;  // scheduling-order stamp of fire_ns
    sim::Rng rng{};       // the flow's gap stream (poisson classes)
    std::uint32_t seq;    // next flow_seq - 1 (tagged identity)
    std::uint32_t budget;
    std::uint32_t tag;
    std::uint16_t dest;
    std::uint8_t cls;
  };

  /// Test/bench instrumentation: when set, packet emissions call the hook
  /// instead of the endpoint (return value = "admitted", mirroring send()).
  /// Lets tests assert the ticking machinery itself allocates nothing.
  using SendHook = bool (*)(void* ctx, std::size_t cls, const overlay::Destination& dest,
                            sim::TimePoint now);
  void set_send_hook(SendHook hook, void* ctx) {
    hook_ = hook;
    hook_ctx_ = ctx;
  }

 private:
  static constexpr std::uint32_t kNoBudget = 0xffffffffu;
  static constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

  struct HeapEntry {
    std::int64_t fire_ns;
    std::uint64_t order;  // ties in fire_ns resolve in scheduling order
    std::uint32_t idx;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void insert(std::uint32_t idx);           // route to heap / wheel / overflow
  void insert_heap(std::uint32_t idx);
  void advance_to(std::int64_t now_ns);     // collect due buckets into the heap
  void redistribute_overflow();
  [[nodiscard]] std::int64_t peek_next_fire() const;
  void arm();
  SON_HOT void on_timer();
  SON_HOT void process_due();
  SON_HOT void fire_flow(std::uint32_t idx, std::int64_t now_ns);
  void retire(std::uint32_t idx);
  void on_start();
  void on_arrival_tick();
  void activate_batch(std::uint64_t count);
  [[nodiscard]] std::uint64_t poisson_draw(double lam);

  sim::Simulator& sim_;
  overlay::ClientEndpoint& client_;
  FlowEngineOptions opts_;
  sim::Rng rng_;
  std::vector<overlay::Payload> payloads_;  // one per class, shared across sends
  std::vector<double> cum_weights_;

  // --- Per-class constants, filled once by the constructor ---
  std::vector<std::int64_t> gap_ns_;  // CBR gap; 0 = poisson (mean_gap_s_)
  std::vector<double> mean_gap_s_;

  // --- The flow table (index = flow slot) ---
  std::vector<Flow> flows_;

  // --- Calendar queue: heap over collected buckets + wheel + overflow ---
  std::vector<HeapEntry> heap_;              // (fire, order) min-heap
  std::vector<std::vector<std::uint32_t>> wheel_;
  std::vector<std::uint32_t> overflow_;      // fire beyond the wheel horizon
  std::vector<std::uint32_t> free_list_;
  std::int64_t bucket_width_ns_ = 1;
  std::int64_t next_bucket_ = 0;             // absolute bucket number (fire / width)
  std::size_t wheel_count_ = 0;
  std::int64_t overflow_min_ = kNever;
  std::uint64_t order_counter_ = 0;
  std::uint32_t tag_counter_ = 0;

  sim::Timers timers_{sim_};
  sim::EventId timer_ = sim::kInvalidEventId;  // the calendar wake
  std::int64_t armed_at_ = kNever;
  bool started_ = false;

  std::size_t active_ = 0;
  std::size_t peak_active_ = 0;
  Totals totals_;
  std::vector<std::uint64_t> sent_by_class_;
  std::vector<std::uint64_t> blocked_by_class_;
  SendHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
  static constexpr obs::Field kCounterFields[] = {
      {"client.flows_blocked", offsetof(Totals, blocked)}};
  obs::Published published_{&totals_, kCounterFields};
};

}  // namespace son::client
