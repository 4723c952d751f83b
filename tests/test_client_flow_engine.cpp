// FlowEngine: one row per flow + single bucket-wheel timer per edge site.
//
// The contracts pinned here:
//   1. Stop boundary — no flow sends at or after its `stop` (a tick landing
//      exactly on the boundary is dead).
//   2. Golden equivalence — in legacy_identity mode, N one-flow engines and
//      one N-flow engine are BIT-IDENTICAL to the recorded results of the
//      per-object senders they replaced: same send counts, same node
//      counters, same delivery hash over (origin_id, flow_seq, latency).
//   3. Zero-allocation ticking — once warm, driving flows through the wheel
//      performs no heap allocations (sim::alloc_count delta == 0).
#include <gtest/gtest.h>

#include "client/flow_engine.hpp"
#include "client/traffic.hpp"
#include "overlay/network.hpp"
#include "sim/alloc_probe.hpp"
#include "sim/check.hpp"

namespace son::client {
namespace {

using namespace son::sim::literals;
using overlay::Destination;
using overlay::ServiceSpec;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

// ---- LoadCurve --------------------------------------------------------------

TEST(LoadCurve, FromNameCoversTheCliVocabulary) {
  ASSERT_TRUE(LoadCurve::from_name("const").has_value());
  ASSERT_TRUE(LoadCurve::from_name("diurnal").has_value());
  ASSERT_TRUE(LoadCurve::from_name("flash").has_value());
  EXPECT_EQ(LoadCurve::from_name("const")->kind, LoadCurve::Kind::kConstant);
  EXPECT_EQ(LoadCurve::from_name("diurnal")->kind, LoadCurve::Kind::kDiurnal);
  EXPECT_EQ(LoadCurve::from_name("flash")->kind, LoadCurve::Kind::kFlashCrowd);
  EXPECT_FALSE(LoadCurve::from_name("sawtooth").has_value());
  EXPECT_FALSE(LoadCurve::from_name("").has_value());
}

TEST(LoadCurve, ShapesMatchTheirDefinitions) {
  const TimePoint t0 = TimePoint::from_ns(5'000'000'000);
  LoadCurve constant;
  EXPECT_DOUBLE_EQ(constant.scale_at(t0 + 37_ms, t0), 1.0);

  LoadCurve diurnal = *LoadCurve::from_name("diurnal");
  diurnal.period = Duration::seconds(40);
  diurnal.amplitude = 0.5;
  EXPECT_DOUBLE_EQ(diurnal.scale_at(t0, t0), 1.0);              // sin(0)
  EXPECT_NEAR(diurnal.scale_at(t0 + 10_s, t0), 1.5, 1e-9);      // peak
  EXPECT_NEAR(diurnal.scale_at(t0 + 30_s, t0), 0.5, 1e-9);      // trough
  EXPECT_NEAR(diurnal.scale_at(t0 + 40_s, t0), 1.0, 1e-9);      // full period

  LoadCurve flash = *LoadCurve::from_name("flash");
  flash.spike_after = Duration::seconds(1);
  flash.spike_width = Duration::seconds(2);
  flash.spike_factor = 10.0;
  EXPECT_DOUBLE_EQ(flash.scale_at(t0 + 999_ms, t0), 1.0);       // before
  EXPECT_DOUBLE_EQ(flash.scale_at(t0 + 1_s, t0), 10.0);         // spike start
  EXPECT_DOUBLE_EQ(flash.scale_at(t0 + 2999_ms, t0), 10.0);     // inside
  EXPECT_DOUBLE_EQ(flash.scale_at(t0 + 3_s, t0), 1.0);          // at the end
}

// ---- Stop boundary -----------------------------------------------------------

struct SmallNet {
  Simulator sim;
  overlay::GraphFixture fx;
  SmallNet() {
    overlay::GraphOptions gopts;
    fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(6), gopts, sim::Rng{60});
    fx.overlay->settle(3_s);
  }
};

TEST(TrafficStopBoundary, CbrSendsExactlyFloorTicksBeforeStop) {
  SmallNet f;
  auto& src = f.fx.overlay->node(0).connect(7);
  auto& dst = f.fx.overlay->node(3).connect(8);
  MeasuringSink sink{dst};
  const TimePoint t0 = f.sim.now();
  // Interval exactly 1 ms: ticks at t0 + {0..4} ms send; the tick AT stop must not.
  FlowEngine cbr{f.sim, src, {.payload_bytes = 1200, .rate_pps = 1000},
                 Destination::unicast(3, 8), t0, t0 + 5_ms};
  f.sim.run_for(1_s);
  EXPECT_EQ(cbr.totals().sent, 5u);
  EXPECT_EQ(cbr.totals().blocked, 0u);
  EXPECT_EQ(sink.received(), 5u);
}

TEST(TrafficStopBoundary, StopEqualToStartSendsNothing) {
  SmallNet f;
  auto& src = f.fx.overlay->node(0).connect(7);
  const TimePoint t0 = f.sim.now();
  FlowEngine cbr{f.sim, src, {.payload_bytes = 1200, .rate_pps = 1000},
                 Destination::unicast(3, 8), t0 + 1_ms, t0 + 1_ms};
  FlowEngine poi{f.sim, src, {.payload_bytes = 400, .rate_pps = 100, .poisson = true},
                 Destination::unicast(3, 8), t0 + 2_ms, t0 + 2_ms, sim::Rng{7}};
  f.sim.run_for(100_ms);
  EXPECT_EQ(cbr.totals().sent, 0u);
  EXPECT_EQ(poi.totals().sent, 0u);
}

TEST(TrafficStopBoundary, PoissonNeverSendsAtOrAfterStop) {
  SmallNet f;
  auto& src = f.fx.overlay->node(0).connect(7);
  auto& dst = f.fx.overlay->node(3).connect(8);
  MeasuringSink sink{dst};
  const TimePoint t0 = f.sim.now();
  const TimePoint stop = t0 + 50_ms;
  std::uint64_t at_or_after_stop = 0;
  sink.on_message([&](const overlay::Message& m, Duration) {
    if (m.hdr.origin_time >= stop) ++at_or_after_stop;
  });
  FlowEngine poi{f.sim, src, {.payload_bytes = 400, .rate_pps = 2000, .poisson = true},
                 Destination::unicast(3, 8), t0, stop, sim::Rng{99}};
  f.sim.run_for(1_s);
  EXPECT_GT(poi.totals().sent, 0u);
  EXPECT_EQ(sink.received(), poi.totals().sent);
  EXPECT_EQ(sink.highest_seq(), poi.totals().sent);
  // Every delivery's origin timestamp must predate the stop boundary.
  EXPECT_EQ(at_or_after_stop, 0u);
}

TEST(TrafficStopBoundary, FlowEngineMatchesTheCbrBoundary) {
  SmallNet f;
  auto& src = f.fx.overlay->node(0).connect(7);
  auto& dst = f.fx.overlay->node(3).connect(8);
  MeasuringSink sink{dst};
  const TimePoint t0 = f.sim.now();
  FlowEngineOptions eo;
  FlowClass c;
  c.rate_pps = 1000;
  eo.classes = {c};
  eo.dests = {Destination::unicast(3, 8)};
  eo.start = t0;
  eo.stop = t0 + 1_s;
  eo.legacy_identity = true;
  FlowEngine eng{f.sim, src, eo, sim::Rng{1}};
  eng.add_flow(0, 0, t0, t0 + 5_ms, sim::Rng{2});       // same window as the CBR pin
  eng.add_flow(0, 0, t0 + 7_ms, t0 + 7_ms, sim::Rng{3});  // stop == first: nothing
  eng.start();
  f.sim.run_for(1_s);
  EXPECT_EQ(eng.totals().sent, 5u);
  EXPECT_EQ(sink.received(), 5u);
  EXPECT_EQ(eng.totals().retired, 2u);
  EXPECT_EQ(eng.active_flows(), 0u);
}

// ---- Flow-table mechanics ---------------------------------------------------

TEST(FlowEngine, PacketBudgetRetiresFlows) {
  SmallNet f;
  auto& src = f.fx.overlay->node(0).connect(7);
  const TimePoint t0 = f.sim.now();
  FlowEngineOptions eo;
  FlowClass c;
  c.rate_pps = 1000;
  c.packet_budget = 7;
  eo.classes = {c};
  eo.dests = {Destination::unicast(2, 5)};
  eo.start = t0;
  eo.stop = t0 + 10_s;
  FlowEngine eng{f.sim, src, eo, sim::Rng{1}};
  eng.add_flow(0, 0, t0, t0 + 10_s, sim::Rng{2});
  eng.add_flow(0, 0, t0 + 500_us, t0 + 10_s, sim::Rng{3});
  eng.start();
  f.sim.run_for(5_s);
  EXPECT_EQ(eng.totals().sent, 14u);  // 7 packets per flow, then retirement
  EXPECT_EQ(eng.totals().retired, 2u);
  EXPECT_EQ(eng.active_flows(), 0u);
  EXPECT_EQ(eng.peak_active_flows(), 2u);
}

TEST(FlowEngine, SlowFlowsCrossTheWheelHorizonCorrectly) {
  // Inter-packet gap (200 ms) >> wheel horizon (16 buckets * 1 ms): every
  // re-arm lands in the overflow list and must still fire exactly on time.
  SmallNet f;
  auto& src = f.fx.overlay->node(0).connect(7);
  auto& dst = f.fx.overlay->node(3).connect(8);
  MeasuringSink sink{dst};
  const TimePoint t0 = f.sim.now();
  FlowEngineOptions eo;
  FlowClass c;
  c.rate_pps = 5;  // one packet per 200 ms
  eo.classes = {c};
  eo.dests = {Destination::unicast(3, 8)};
  eo.start = t0;
  eo.stop = t0 + 10_s;
  eo.bucket_width = 1_ms;
  eo.buckets = 16;
  eo.legacy_identity = true;
  FlowEngine eng{f.sim, src, eo, sim::Rng{1}};
  eng.add_flow(0, 0, t0, t0 + 1001_ms, sim::Rng{2});
  eng.start();
  f.sim.run_for(3_s);
  EXPECT_EQ(eng.totals().sent, 6u);  // t0 + {0, 200, 400, 600, 800, 1000} ms
  EXPECT_EQ(sink.received(), 6u);
}

TEST(FlowEngine, CurveDrivenPopulationReachesTheTargetAndChurns) {
  SmallNet f;
  auto& src = f.fx.overlay->node(0).connect(7);
  const TimePoint t0 = f.sim.now();
  FlowEngineOptions eo;
  FlowClass c;
  c.rate_pps = 100;
  eo.classes = {c};
  eo.dests = {Destination::unicast(2, 5)};
  eo.flows = 500;
  eo.mean_lifetime = 200_ms;
  eo.start = t0;
  eo.stop = t0 + 2_s;
  FlowEngine eng{f.sim, src, eo, sim::Rng{42}};
  eng.start();
  f.sim.run_for(3_s);
  // Initial batch + churn arrivals; exponential lifetimes retire flows.
  EXPECT_GE(eng.totals().activated, 500u);
  EXPECT_GT(eng.totals().retired, 500u);
  EXPECT_GT(eng.totals().sent, 1000u);
  EXPECT_GE(eng.peak_active_flows(), 400u);
  EXPECT_EQ(eng.active_flows() + eng.totals().retired, eng.totals().activated);
  EXPECT_GT(eng.memory_bytes(), 0u);
}

// ---- Tagged flyweight identity ----------------------------------------------

TEST(FlowEngine, TaggedFlowsGetDistinctIdentitiesThroughOneEndpoint) {
  SmallNet f;
  auto& src = f.fx.overlay->node(0).connect(7);
  auto& dst = f.fx.overlay->node(3).connect(8);
  MeasuringSink sink{dst};
  const TimePoint t0 = f.sim.now();
  FlowEngineOptions eo;
  FlowClass c;
  c.rate_pps = 1000;
  c.packet_budget = 10;
  eo.classes = {c};
  eo.dests = {Destination::unicast(3, 8)};
  eo.start = t0;
  eo.stop = t0 + 10_s;
  // Default (flyweight) identity: same endpoint, same destination — but each
  // flow carries its own tag and sequence numbers.
  FlowEngine eng{f.sim, src, eo, sim::Rng{1}};
  eng.add_flow(0, 0, t0, t0 + 10_s, sim::Rng{2});
  eng.add_flow(0, 0, t0, t0 + 10_s, sim::Rng{3});
  eng.add_flow(0, 0, t0, t0 + 10_s, sim::Rng{4});
  eng.start();
  f.sim.run_for(2_s);
  EXPECT_EQ(eng.totals().sent, 30u);
  EXPECT_EQ(sink.received(), 30u);
  // Three distinct flow keys at the terminating session, each a clean
  // gap-free 1..10 sequence — per-flow identity survived the shared endpoint.
  const auto& flows = f.fx.overlay->node(3).session_flows();
  ASSERT_EQ(flows.size(), 3u);
  for (const auto& [key, fs] : flows) {
    EXPECT_EQ(fs.delivered, 10u);
    EXPECT_EQ(fs.highest_seq, 10u);
    EXPECT_EQ(fs.gaps, 0u);
  }
}

TEST(FlowEngine, SessionFlowAccountingKnobDropsThePerFlowMap) {
  Simulator sim;
  overlay::GraphOptions gopts;
  gopts.node.session_flow_accounting = false;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(6), gopts,
                                         sim::Rng{60});
  fx.overlay->settle(3_s);
  auto& src = fx.overlay->node(0).connect(7);
  auto& dst = fx.overlay->node(3).connect(8);
  MeasuringSink sink{dst};
  for (int i = 0; i < 10; ++i) {
    src.send(Destination::unicast(3, 8), overlay::make_payload(100), ServiceSpec{});
  }
  sim.run_for(1_s);
  // Delivery and handlers are unaffected; only the per-flow map is gone.
  EXPECT_EQ(sink.received(), 10u);
  EXPECT_EQ(fx.overlay->node(3).stats().delivered_local, 10u);
  EXPECT_TRUE(fx.overlay->node(3).session_flows().empty());
}

// ---- Golden equivalence: one-flow engines == one multi-flow engine ----------

struct GoldenResult {
  std::uint64_t sent = 0;
  std::uint64_t blocked = 0;
  std::uint64_t originated = 0;
  std::uint64_t delivered_local = 0;
  std::uint64_t received = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t highest_seq = 0;
  std::uint64_t hash = 1469598103934665603ULL;
};

// Recorded from run A of each test below when it still drove one
// CbrSender/PoissonSender object per flow, before those classes were folded
// into FlowEngine's one-flow constructor.
constexpr GoldenResult kMixedPopulationGolden{916, 0, 916, 916, 916, 0, 916,
                                              1554313642479702834ULL};
constexpr GoldenResult kSharedInstantGolden{100, 0, 100, 100, 100, 0, 100,
                                            1635213773307317571ULL};

void expect_golden(const GoldenResult& got, const GoldenResult& want) {
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.blocked, want.blocked);
  EXPECT_EQ(got.originated, want.originated);
  EXPECT_EQ(got.delivered_local, want.delivered_local);
  EXPECT_EQ(got.received, want.received);
  EXPECT_EQ(got.duplicates, want.duplicates);
  EXPECT_EQ(got.highest_seq, want.highest_seq);
  EXPECT_EQ(got.hash, want.hash);
}

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

struct FlowSpec {
  double rate_pps;
  bool poisson;
  Duration offset;
};

// Mixed CBR/Poisson population. Offsets and rates are chosen so no two flows
// (or protocol timers) ever tick at the same nanosecond — cross-object
// ordering at shared instants is exercised separately below.
const FlowSpec kGoldenFlows[] = {
    {941, false, Duration::microseconds(137)}, {613, false, Duration::microseconds(211)},
    {377, false, Duration::microseconds(307)}, {200, true, Duration::microseconds(401)},
    {150, true, Duration::microseconds(503)},
};

template <typename MakeTraffic>
GoldenResult run_golden(MakeTraffic make_traffic) {
  SmallNet f;
  auto& src = f.fx.overlay->node(0).connect(7);
  auto& dst = f.fx.overlay->node(3).connect(8);
  MeasuringSink sink{dst};
  GoldenResult r;
  sink.on_message([&](const overlay::Message& m, Duration latency) {
    mix(r.hash, m.hdr.origin_id);
    mix(r.hash, m.hdr.flow_seq);
    mix(r.hash, static_cast<std::uint64_t>(latency.ns()));
  });
  const TimePoint t0 = f.sim.now();
  const TimePoint stop = t0 + 400_ms;
  auto [sent, blocked] = make_traffic(f.sim, src, t0, stop);
  r.sent = sent;
  r.blocked = blocked;
  r.originated = f.fx.overlay->node(0).stats().originated;
  r.delivered_local = f.fx.overlay->node(3).stats().delivered_local;
  r.received = sink.received();
  r.duplicates = sink.duplicates();
  r.highest_seq = sink.highest_seq();
  return r;
}

TEST(FlowEngineGolden, EquivalentToPerObjectSendersBitForBit) {
  // Run A: one engine, and so one heap object and one timer, per flow.
  const GoldenResult a = run_golden([](Simulator& sim, overlay::ClientEndpoint& src,
                                       TimePoint t0, TimePoint stop) {
    std::vector<std::unique_ptr<FlowEngine>> engines;
    const sim::Rng base{777};
    std::uint64_t label = 0;
    for (const FlowSpec& fs : kGoldenFlows) {
      engines.push_back(std::make_unique<FlowEngine>(
          sim, src,
          FlowClass{.payload_bytes = 300, .rate_pps = fs.rate_pps, .poisson = fs.poisson},
          Destination::unicast(3, 8), t0 + fs.offset, stop, base.fork(label)));
      ++label;
    }
    sim.run_until(stop + 2_s);
    std::uint64_t sent = 0, blocked = 0;
    for (const auto& e : engines) sent += e->totals().sent, blocked += e->totals().blocked;
    return std::pair<std::uint64_t, std::uint64_t>{sent, blocked};
  });

  // Run B: the same population as rows in ONE engine's flow tables.
  const GoldenResult b = run_golden([](Simulator& sim, overlay::ClientEndpoint& src,
                                       TimePoint t0, TimePoint stop) {
    FlowEngineOptions eo;
    for (const FlowSpec& fs : kGoldenFlows) {
      eo.classes.push_back(
          {.payload_bytes = 300, .rate_pps = fs.rate_pps, .poisson = fs.poisson});
    }
    eo.dests = {Destination::unicast(3, 8)};
    eo.start = t0;
    eo.stop = stop;
    eo.legacy_identity = true;  // endpoint-held flow identity, like run A
    FlowEngine eng{sim, src, eo, sim::Rng{1}};
    const sim::Rng base{777};
    std::uint64_t label = 0;
    for (std::size_t i = 0; i < std::size(kGoldenFlows); ++i) {
      eng.add_flow(i, 0, t0 + kGoldenFlows[i].offset, stop, base.fork(label));
      ++label;
    }
    eng.start();
    sim.run_until(stop + 2_s);
    return std::pair<std::uint64_t, std::uint64_t>{eng.totals().sent, eng.totals().blocked};
  });

  expect_golden(a, kMixedPopulationGolden);
  expect_golden(b, kMixedPopulationGolden);
}

TEST(FlowEngineGolden, SharedInstantOrderingMatchesTheEventQueue) {
  // Two CBR flows with the SAME rate and SAME start collide at every tick.
  // Two one-flow engines break the tie by event-queue order; one engine must
  // reproduce it with its scheduling-order stamps — the delivery hash covers
  // origin_id allocation order, which exposes any swap.
  const FlowClass c{.payload_bytes = 300, .rate_pps = 500};
  const GoldenResult a = run_golden([&c](Simulator& sim, overlay::ClientEndpoint& src,
                                         TimePoint t0, TimePoint stop) {
    const TimePoint first = t0 + Duration::microseconds(173);
    FlowEngine one{sim, src, c, Destination::unicast(3, 8), first, t0 + 100_ms};
    FlowEngine two{sim, src, c, Destination::unicast(3, 8), first, t0 + 100_ms};
    sim.run_until(stop + 1_s);
    return std::pair<std::uint64_t, std::uint64_t>{one.totals().sent + two.totals().sent,
                                                   one.totals().blocked + two.totals().blocked};
  });
  const GoldenResult b = run_golden([&c](Simulator& sim, overlay::ClientEndpoint& src,
                                         TimePoint t0, TimePoint stop) {
    FlowEngineOptions eo;
    eo.classes = {c};
    eo.dests = {Destination::unicast(3, 8)};
    eo.start = t0;
    eo.stop = t0 + 100_ms;
    eo.legacy_identity = true;
    FlowEngine eng{sim, src, eo, sim::Rng{1}};
    eng.add_flow(0, 0, t0 + Duration::microseconds(173), t0 + 100_ms, sim::Rng{2});
    eng.add_flow(0, 0, t0 + Duration::microseconds(173), t0 + 100_ms, sim::Rng{3});
    eng.start();
    sim.run_until(stop + 1_s);
    return std::pair<std::uint64_t, std::uint64_t>{eng.totals().sent, eng.totals().blocked};
  });
  expect_golden(a, kSharedInstantGolden);  // 50 ticks each
  expect_golden(b, kSharedInstantGolden);
}

// ---- Index-width checks -------------------------------------------------------

// A bare, never-started node: no hellos, no floods — the only events in its
// simulator are the engine's own.
struct BareEndpoint {
  Simulator sim;
  net::Internet internet{sim, sim::Rng{5}};
  overlay::OverlayNode node{internet, internet.add_host("probe"), 0, topo::Graph{1}, {},
                            overlay::NodeConfig{}, sim::Rng{6}};
  overlay::ClientEndpoint& src = node.connect(1);
};

#if SON_DCHECK_ENABLED
TEST(FlowEngineDeathTest, MoreThan256ClassesAbort) {
  BareEndpoint b;
  FlowEngineOptions eo;
  eo.classes.resize(257);
  eo.dests = {Destination::unicast(0, 2)};
  EXPECT_DEATH(FlowEngine(b.sim, b.src, eo, sim::Rng{1}), "256 flow classes");
}

TEST(FlowEngineDeathTest, MoreThan65536DestinationsAbort) {
  BareEndpoint b;
  FlowEngineOptions eo;
  eo.classes = {FlowClass{}};
  eo.dests.assign(65537, Destination::unicast(0, 2));
  EXPECT_DEATH(FlowEngine(b.sim, b.src, eo, sim::Rng{1}), "65536 destinations");
}
#endif

// ---- Row layout --------------------------------------------------------------

TEST(FlowEngine, FlowRowFitsOneCacheLine) {
  // One fire reads and writes one row; at 300k+ flows the table is far
  // larger than cache, so a row wider than a line costs a second miss.
  static_assert(sizeof(FlowEngine::Flow) <= 64);
  BareEndpoint b;
  FlowEngineOptions eo;
  eo.classes = {FlowClass{}};
  eo.dests = {Destination::unicast(0, 2)};
  eo.flows = 1000;
  eo.capacity_headroom = 24;
  const FlowEngine eng{b.sim, b.src, eo, sim::Rng{1}};
  // Reserved rows dominate the footprint: 1024 rows plus the heap entries.
  EXPECT_LT(eng.memory_bytes(), 1024 * (sizeof(FlowEngine::Flow) + 24 + 4) + 64 * 1024);
}

// ---- Zero-allocation steady state -------------------------------------------

bool count_only_hook(void* ctx, std::size_t, const Destination&, TimePoint) {
  ++*static_cast<std::uint64_t*>(ctx);
  return true;
}

TEST(FlowEngineAlloc, SteadyStateTickingDoesNotTouchTheHeap) {
  // The only events are the engine's own wheel wake-ups, and the send hook
  // bypasses the (allocating) overlay datapath.
  BareEndpoint b;

  FlowEngineOptions eo;
  FlowClass cbr;
  cbr.rate_pps = 200;
  FlowClass poi;
  poi.rate_pps = 100;
  poi.poisson = true;
  eo.classes = {cbr, poi};
  eo.dests = {Destination::unicast(0, 2)};
  eo.start = TimePoint::zero();
  eo.stop = TimePoint::from_ns(Duration::seconds(60).ns());
  eo.bucket_width = 1_ms;
  eo.buckets = 64;  // small wheel: many revolutions + overflow redistribution
  eo.capacity_headroom = 4096;  // explicit population: reserve for all 2000 rows
  FlowEngine eng{b.sim, b.src, eo, sim::Rng{1}};
  std::uint64_t fired = 0;
  eng.set_send_hook(&count_only_hook, &fired);
  const sim::Rng base{31337};
  for (std::uint64_t i = 0; i < 2000; ++i) {
    eng.add_flow(i % 2, 0, TimePoint::from_ns(static_cast<std::int64_t>(i) * 25'000),
                 eo.stop, base.fork(i));
  }
  eng.start();

  // Warm up well past one wheel revolution so every table, bucket and the
  // event queue's slot pool have seen their high-water marks.
  b.sim.run_for(5_s);
  const std::uint64_t fired_before = fired;
  const std::uint64_t allocs_before = sim::alloc_count();
  b.sim.run_for(5_s);
  const std::uint64_t allocs_after = sim::alloc_count();
  EXPECT_GT(fired - fired_before, 500'000u);  // ~300k pps for 5 s of sim time
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state FlowEngine ticking must not allocate";
}

}  // namespace
}  // namespace son::client
