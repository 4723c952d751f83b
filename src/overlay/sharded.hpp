// Sharded deployment fixture: a backbone map run on the ShardedKernel.
//
// One partition per city (topo::partition_by_site), the dual-ISP underlay
// sharded through Internet::enable_sharding, and one overlay node per site
// bound to its partition's simulator. The worker count is a pure wall-clock
// knob: build_sharded_map(map, {.workers = 1}) and {.workers = K} produce
// bit-identical runs (pinned by GoldenRun.ShardedOneWorkerEqualsFour).
#pragma once

#include <cstdint>
#include <memory>

#include "net/internet.hpp"
#include "overlay/network.hpp"
#include "sim/shard.hpp"
#include "topo/backbones.hpp"
#include "topo/partition.hpp"

namespace son::overlay {

struct ShardedMapOptions {
  /// Executor threads (clamped to the partition count). Results never depend
  /// on it.
  unsigned workers = 1;
  topo::DualIspOptions underlay;
  net::Internet::Config net;
  NodeConfig node;
};

struct ShardedMapFixture {
  // Destruction runs bottom-up: overlay nodes and the internet go before the
  // kernel that owns every partition simulator they reference.
  std::unique_ptr<sim::ShardedKernel> kernel;
  std::unique_ptr<net::Internet> internet;
  topo::BuiltUnderlay underlay;
  std::unique_ptr<OverlayNetwork> overlay;

  /// The partition simulator overlay node `id` runs on — schedule traffic
  /// sources here so sends execute inside the source's own partition.
  [[nodiscard]] sim::Simulator& node_sim(NodeId id) {
    return internet->host_sim(underlay.hosts[id]);
  }
};

/// Builds the whole stack: kernel (one partition per city), internet over
/// kernel.control_sim(), dual-ISP underlay, site partition plan, worker
/// observability binding, and the sharded overlay. All randomness derives
/// from `seed` via component streams.
[[nodiscard]] ShardedMapFixture build_sharded_map(const topo::BackboneMap& map,
                                                  const ShardedMapOptions& opts,
                                                  std::uint64_t seed);

}  // namespace son::overlay
