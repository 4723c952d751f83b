// §IV-B Intrusion-tolerant monitoring and control.
//
// Monitoring and control of high-value infrastructure must "withstand
// attacks on the overlay itself, including compromises of overlay nodes."
// This example runs both IT services at once over a compromised overlay:
//   * Priority messaging (timely monitoring) over constrained flooding,
//   * Reliable messaging (control commands) over 2 node-disjoint paths,
// while one overlay node blackholes transit data and another floods the
// network trying to consume forwarding resources.
#include <cstdio>

#include "client/flow_engine.hpp"
#include "overlay/network.hpp"
#include "sim/stats.hpp"

using namespace son;
using namespace son::sim::literals;

int main() {
  sim::Simulator sim;
  overlay::GraphOptions gopts;
  gopts.node.authenticate = true;  // hop-by-hop HMAC on IT protocols
  gopts.node.master_key[0] = 0x5A;
  gopts.node.link_protocols.it_egress_msgs_per_sec = 2000;
  auto fx = overlay::build_graph_fixture(sim, overlay::circulant_topology(12), gopts,
                                         sim::Rng{51});
  auto& net = *fx.overlay;

  constexpr overlay::NodeId kField = 0;    // field site (sensors)
  constexpr overlay::NodeId kControl = 6;  // control center
  constexpr overlay::NodeId kByzantine = 3;
  constexpr overlay::NodeId kFlooder = 9;

  // Node 3 blackholes everything it is asked to forward; node 9 originates
  // a resource-consumption flood toward the control center.
  net.node(kByzantine).set_compromise(overlay::CompromiseBehavior::blackhole());

  auto& sensors = net.node(kField).connect(3000);
  auto& control = net.node(kControl).connect(3001);
  auto& actuators = net.node(kField).connect(3002);

  std::uint64_t monitoring_got = 0, commands_got = 0, junk_got = 0;
  sim::SampleSet mon_lat;
  control.set_handler([&](const overlay::Message& m, sim::Duration lat) {
    if (m.hdr.origin == kFlooder) {
      ++junk_got;
    } else {
      ++monitoring_got;
      mon_lat.add(lat.to_millis_f());
    }
  });
  actuators.set_handler([&](const overlay::Message&, sim::Duration) { ++commands_got; });
  net.settle(3_s);

  // Monitoring: IT-Priority over constrained flooding — timely and immune
  // to both the blackhole (flooding survives any single compromise) and the
  // flooder (per-source fair queues).
  overlay::ServiceSpec monitoring;
  monitoring.scheme = overlay::RouteScheme::kFlooding;
  monitoring.link_protocol = overlay::LinkProtocol::kITPriority;
  monitoring.priority = 7;
  client::FlowEngine sensor_stream{sim, sensors,
                                   {.spec = monitoring, .payload_bytes = 400, .rate_pps = 200},
                                   overlay::Destination::unicast(kControl, 3001), sim.now(),
                                   sim.now() + 20_s};

  // Control: IT-Reliable over 2 node-disjoint paths (tolerates the single
  // blackholing node wherever it sits).
  overlay::ServiceSpec command;
  command.scheme = overlay::RouteScheme::kDisjointPaths;
  command.num_paths = 2;
  command.link_protocol = overlay::LinkProtocol::kITReliable;
  client::FlowEngine commander{sim, control,
                               {.spec = command, .payload_bytes = 200, .rate_pps = 20},
                               overlay::Destination::unicast(kField, 3002), sim.now(),
                               sim.now() + 20_s};

  // The flooder hammers the control center at 20x the sensors' rate with
  // max priority, trying to crowd them out.
  auto& flooder = net.node(kFlooder).connect(3999);
  overlay::ServiceSpec junk = monitoring;
  junk.priority = 9;
  client::FlowEngine flood{sim, flooder, {.spec = junk, .payload_bytes = 400, .rate_pps = 4000},
                           overlay::Destination::unicast(kControl, 3001), sim.now(),
                           sim.now() + 20_s};

  sim.run_for(25_s);

  std::printf("intrusion-tolerant monitoring & control, 20 s, 12-node overlay with a\n");
  std::printf("blackholing node (3) and a 4000 msg/s flooding source (9):\n\n");
  std::printf("  monitoring : %llu/%llu delivered (%.2f%%), p99 %.1f ms\n",
              static_cast<unsigned long long>(monitoring_got),
              static_cast<unsigned long long>(sensor_stream.totals().sent),
              100.0 * static_cast<double>(monitoring_got) /
                  static_cast<double>(sensor_stream.totals().sent),
              mon_lat.quantile(0.99));
  std::printf("  commands   : %llu/%llu delivered (%.2f%%) via IT-Reliable\n",
              static_cast<unsigned long long>(commands_got),
              static_cast<unsigned long long>(commander.totals().sent),
              100.0 * static_cast<double>(commands_got) /
                  static_cast<double>(commander.totals().sent));
  std::printf("  flood junk : %llu/%llu admitted at the control center\n",
              static_cast<unsigned long long>(junk_got),
              static_cast<unsigned long long>(flood.totals().sent));
  std::printf("  auth       : every data frame carried a per-hop HMAC-SHA256 tag\n");
  std::printf("\nThe fair per-source round-robin keeps the sensors' full stream flowing\n");
  std::printf("despite the 20x flood; redundant dissemination routes around the\n");
  std::printf("blackhole (§IV-B).\n");
  return 0;
}
