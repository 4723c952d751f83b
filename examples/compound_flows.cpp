// §V-C Compound flows: in-network video transcoding in the cloud.
//
// "A video stream of a live sports event is sent from the stadium as a
// broadcast-quality MPEG transport stream on the overlay and delivered to
// several sports network destinations... One of the destinations of the
// transport stream can be a transcoding facility in the cloud that
// transcodes the signal to different formats and quality levels and
// transports it to CDNs and social media sites... Network conditions and
// failures may lead to rerouting that can include the selection of a
// transcoding facility at a different location."
#include <cstdio>

#include "client/flow_engine.hpp"
#include "overlay/network.hpp"
#include "overlay/transform.hpp"
#include "sim/stats.hpp"

using namespace son;
using namespace son::sim::literals;

int main() {
  sim::Simulator sim;
  net::Internet internet{sim, sim::Rng{61}};
  const auto map = topo::continental_us();
  const auto underlay = topo::build_dual_isp(internet, map, topo::DualIspOptions{});
  overlay::NodeConfig cfg;
  overlay::OverlayNetwork net{internet, underlay.overlay, underlay.hosts, cfg, sim::Rng{62}};

  constexpr overlay::GroupId kMpegFeed = 500;    // broadcast-quality stream
  constexpr overlay::GroupId kTranscode = 501;   // anycast: transcoding facilities
  constexpr overlay::GroupId kCdnFeed = 502;     // transcoded mobile stream

  // Three sports networks take the broadcast feed directly.
  struct Net {
    const char* name;
    std::uint64_t frames = 0;
  };
  Net sports[3] = {{.name = "ATL-net"}, {.name = "CHI-net"}, {.name = "LAX-net"}};
  const overlay::NodeId sports_nodes[3] = {2, 4, 9};
  for (int i = 0; i < 3; ++i) {
    auto& ep = net.node(sports_nodes[i]).connect(2000);
    ep.join(kMpegFeed);
    ep.set_handler([&n = sports[i]](const overlay::Message&, sim::Duration) { ++n.frames; });
  }

  // Two transcoding facilities (DFW and DEN) each subscribe to the MPEG feed
  // and republish a transcoded stream into the CDN group. To model "exactly
  // one facility transcodes", the stadium ALSO sends each frame to the
  // kTranscode ANYCAST group — the overlay picks the nearest live facility.
  const auto transcode_720p = [](const overlay::Message& m) {
    // 8 Mbps MPEG-TS -> 2 Mbps mobile rendition: quarter-size payload.
    return overlay::make_payload(m.payload_size() / 4, 0x72);
  };
  overlay::ServiceSpec cdn_spec;
  cdn_spec.link_protocol = overlay::LinkProtocol::kReliable;
  overlay::FlowTransformer::Options topts;
  topts.in_port = 2100;
  topts.in_group = kTranscode;
  topts.out = overlay::Destination::multicast(kCdnFeed);
  topts.out_spec = cdn_spec;
  topts.processing = 8_ms;  // transcoding latency
  overlay::FlowTransformer dfw_facility{sim, net.node(5), topts, transcode_720p};
  overlay::FlowTransformer den_facility{sim, net.node(7), topts, transcode_720p};

  // CDN ingest points (MIA and SEA) consume the transcoded rendition.
  struct Cdn {
    const char* name;
    std::uint64_t segments = 0;
    sim::SampleSet e2e_ms;  // stadium-to-CDN including transcoding
  };
  Cdn cdns[2] = {{"MIA-cdn", 0, {}}, {"SEA-cdn", 0, {}}};
  const overlay::NodeId cdn_nodes[2] = {3, 11};
  for (int i = 0; i < 2; ++i) {
    auto& ep = net.node(cdn_nodes[i]).connect(2200);
    ep.join(kCdnFeed);
    ep.set_handler([&c = cdns[i]](const overlay::Message&, sim::Duration lat) {
      ++c.segments;
      c.e2e_ms.add(lat.to_millis_f());
    });
  }
  net.settle(3_s);

  // The stadium (HOU) pushes 30 s of video: each frame goes to the sports
  // networks (multicast) and to the nearest transcoding facility (anycast).
  auto& stadium_mc = net.node(6).connect(2001);
  auto& stadium_any = net.node(6).connect(2002);
  overlay::ServiceSpec feed_spec;
  feed_spec.link_protocol = overlay::LinkProtocol::kReliable;
  client::FlowEngine camera{sim, stadium_mc,
                            {.spec = feed_spec, .payload_bytes = 1200, .rate_pps = 416},
                            overlay::Destination::multicast(kMpegFeed), sim.now(),
                            sim.now() + 30_s};
  client::FlowEngine to_transcoder{sim, stadium_any,
                                   {.spec = feed_spec, .payload_bytes = 1200, .rate_pps = 416},
                                   overlay::Destination::anycast(kTranscode), sim.now(),
                                   sim.now() + 30_s};

  // At t=+12 s the DFW facility's machine crashes; anycast shifts the
  // compound flow to the DEN facility.
  sim.schedule(12_s, [&]() {
    std::printf("t=%.1fs  *** DFW transcoding facility crashes ***\n",
                sim.now().to_seconds_f());
    net.node(5).set_crashed(true);
  });

  sim.run_for(35_s);

  std::printf("\ncompound flow: stadium (HOU) -> sports nets + cloud transcoding -> CDNs\n\n");
  for (const auto& s : sports) {
    std::printf("  %-8s broadcast frames %llu/%llu\n", s.name,
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(camera.totals().sent));
  }
  std::printf("  transcoders: DFW consumed %llu (crashed mid-run), DEN consumed %llu\n",
              static_cast<unsigned long long>(dfw_facility.stats().consumed),
              static_cast<unsigned long long>(den_facility.stats().consumed));
  for (const auto& c : cdns) {
    std::printf("  %-8s transcoded segments %llu, end-to-end p99 %.1f ms "
                "(incl. 8 ms transcode)\n",
                c.name, static_cast<unsigned long long>(c.segments),
                c.e2e_ms.quantile(0.99));
  }
  std::printf("\nThe facility failure rerouted the compound flow to the other site;\n");
  std::printf("latency accounting spans the whole flow, transformation included.\n");
  return 0;
}
