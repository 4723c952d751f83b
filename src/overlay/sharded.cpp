#include "overlay/sharded.hpp"

#include "obs/recorder.hpp"

namespace son::overlay {

ShardedMapFixture build_sharded_map(const topo::BackboneMap& map, const ShardedMapOptions& opts,
                                    std::uint64_t seed) {
  ShardedMapFixture fx;
  fx.kernel = std::make_unique<sim::ShardedKernel>(map.cities.size(), opts.workers);
  fx.internet = std::make_unique<net::Internet>(
      fx.kernel->control_sim(), sim::component_stream(seed, 0, kStreamInternet, 0), opts.net);
  fx.underlay = topo::build_dual_isp(*fx.internet, map, opts.underlay);
  fx.internet->enable_sharding(*fx.kernel, topo::partition_by_site(*fx.internet, fx.underlay));
  obs::bind_worker_observability(*fx.kernel);
  fx.overlay = std::make_unique<OverlayNetwork>(*fx.internet, fx.underlay.overlay,
                                                fx.underlay.hosts, opts.node,
                                                NodeStreams::component_streams(seed));
  return fx;
}

}  // namespace son::overlay
