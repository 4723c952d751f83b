// §III-B Resilient monitoring and control of global clouds.
//
// Ten "cloud region" endpoints publish telemetry into a multicast group
// consumed by two operations centers (display + analysis engine); the
// operations center issues control commands back over the fully reliable
// service. Mid-run, an entire ISP has an outage — the overlay's multihoming
// keeps both the telemetry fan-in and the command channel alive.
#include <cstdio>

#include "client/flow_engine.hpp"
#include "overlay/network.hpp"
#include "sim/stats.hpp"

using namespace son;
using namespace son::sim::literals;

int main() {
  sim::Simulator sim;
  net::Internet internet{sim, sim::Rng{21}};
  const auto map = topo::continental_us();
  const auto underlay = topo::build_dual_isp(internet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{internet, underlay.overlay, underlay.hosts, cfg, sim::Rng{22}};

  constexpr overlay::GroupId kTelemetry = 100;
  constexpr overlay::GroupId kCommands = 101;

  // Operations centers at WDC and SFO join the telemetry group ("only
  // receivers need to join"; senders just send).
  struct Ops {
    const char* name;
    std::uint64_t telemetry = 0;
    sim::SampleSet lat_ms;
  };
  Ops ops[2] = {{"WDC-ops", 0, {}}, {"SFO-ops", 0, {}}};
  auto& wdc_ops = net.node(1).connect(9000);
  auto& sfo_ops = net.node(10).connect(9000);
  wdc_ops.join(kTelemetry);
  sfo_ops.join(kTelemetry);
  wdc_ops.set_handler([&](const overlay::Message&, sim::Duration lat) {
    ++ops[0].telemetry;
    ops[0].lat_ms.add(lat.to_millis_f());
  });
  sfo_ops.set_handler([&](const overlay::Message&, sim::Duration lat) {
    ++ops[1].telemetry;
    ops[1].lat_ms.add(lat.to_millis_f());
  });

  // Every region hosts a telemetry publisher and a command receiver.
  std::uint64_t commands_received = 0;
  std::vector<overlay::ClientEndpoint*> agents;
  for (overlay::NodeId n = 0; n < net.size(); ++n) {
    auto& agent = net.node(n).connect(9100);
    agent.join(kCommands);
    agent.set_handler(
        [&commands_received](const overlay::Message&, sim::Duration) { ++commands_received; });
    agents.push_back(&agent);
  }
  net.settle(3_s);

  // Telemetry: timeliness over completeness — best effort is appropriate
  // (the latest reading supersedes lost ones).
  overlay::ServiceSpec telemetry_spec;  // link-state multicast, best effort
  std::vector<std::unique_ptr<client::FlowEngine>> publishers;
  sim::Rng rng{23};
  for (overlay::NodeId n = 0; n < net.size(); ++n) {
    publishers.push_back(std::make_unique<client::FlowEngine>(
        sim, *agents[n],
        client::FlowClass{
            .spec = telemetry_spec, .payload_bytes = 300, .rate_pps = 50, .poisson = true},
        overlay::Destination::multicast(kTelemetry), sim.now(), sim.now() + 30_s,
        rng.fork(n)));
  }

  // Control: complete reliability — Reliable Data Link + ordered delivery.
  overlay::ServiceSpec command_spec;
  command_spec.link_protocol = overlay::LinkProtocol::kReliable;
  command_spec.ordered = true;
  client::FlowEngine commander{sim, wdc_ops,
                               {.spec = command_spec, .payload_bytes = 200, .rate_pps = 10},
                               overlay::Destination::multicast(kCommands), sim.now() + 1_s,
                               sim.now() + 30_s};

  // Disaster: ISP A suffers a total outage for 10 s in the middle of the run.
  sim.schedule(12_s, [&]() {
    std::printf("t=%.1fs  *** ISP A total outage ***\n", sim.now().to_seconds_f());
    internet.set_isp_up(0, false);
  });
  sim.schedule(22_s, [&]() {
    std::printf("t=%.1fs  *** ISP A restored ***\n", sim.now().to_seconds_f());
    internet.set_isp_up(0, true);
  });

  sim.run_for(35_s);

  std::uint64_t published = 0;
  for (const auto& p : publishers) published += p->totals().sent;
  std::printf("\ncloud monitoring & control, 30 s, 12 regions, 10 s total ISP-A outage mid-run:\n");
  for (const auto& o : ops) {
    std::printf("  %-8s telemetry received %llu/%llu (%.2f%%), p99 latency %.2f ms\n",
                o.name, static_cast<unsigned long long>(o.telemetry),
                static_cast<unsigned long long>(published),
                100.0 * static_cast<double>(o.telemetry) / static_cast<double>(published),
                o.lat_ms.quantile(0.99));
  }
  std::printf("  commands: %llu sent x 12 regions = %llu expected, %llu delivered\n",
              static_cast<unsigned long long>(commander.totals().sent),
              static_cast<unsigned long long>(commander.totals().sent * 12),
              static_cast<unsigned long long>(commands_received));
  std::printf("\nThe ISP-wide outage is absorbed by multihoming: overlay links fail\n");
  std::printf("over to the second provider within a few hello intervals, so both\n");
  std::printf("the timely telemetry and the reliable command channel keep working.\n");
  return 0;
}
