// Deployment builders: instantiate a whole structured overlay network over a
// simulated underlay and wire every node's neighbor links and ISP channels.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/internet.hpp"
#include "overlay/node.hpp"
#include "sim/check.hpp"
#include "topo/backbones.hpp"

namespace son::overlay {

/// Component keys for sim::component_stream — the layout-independent RNG
/// derivation shared by every sharded deployment.
inline constexpr std::uint32_t kStreamInternet = 1;
inline constexpr std::uint32_t kStreamNode = 2;
inline constexpr std::uint32_t kStreamFlowEngine = 3;

/// Where each overlay node's randomness comes from: one of the two rules the
/// golden runs pin.
class NodeStreams {
 public:
  /// Fork chain: node i draws from rng.fork(0x4000 + i). Implicit, so a
  /// plain sim::Rng argument selects this rule.
  NodeStreams(sim::Rng rng) : rng_{rng} {}  // NOLINT(google-explicit-constructor)
  /// Component streams: node i draws from sim::component_stream(seed, its
  /// host's partition, kStreamNode, i), so node randomness is a pure function
  /// of the partition structure, independent of construction order and
  /// worker count.
  [[nodiscard]] static NodeStreams component_streams(std::uint64_t seed) {
    NodeStreams s{sim::Rng{}};
    s.seed_ = seed;
    return s;
  }

  [[nodiscard]] sim::Rng of(NodeId id, std::uint32_t partition) const {
    return seed_ ? sim::component_stream(*seed_, partition, kStreamNode, id)
                 : rng_.fork(0x4000 + id);
  }

 private:
  sim::Rng rng_;
  std::optional<std::uint64_t> seed_;  // engaged: component streams
};

class OverlayNetwork {
 public:
  /// Deploys one overlay node per node of `overlay_topology`, node i running
  /// on hosts[i] and on internet.host_sim(hosts[i]) — the internet's own
  /// simulator unless enable_sharding() partitioned it. Each overlay link gets
  /// one underlay channel per ISP attachment the two hosts share: channel c
  /// uses attachment c on both sides (the builders attach hosts to ISPs in the
  /// same order), so with dual-homed hosts channel 0 is on-net ISP A and
  /// channel 1 on-net ISP B — the resilient network architecture of Fig. 1.
  OverlayNetwork(net::Internet& internet, topo::Graph overlay_topology,
                 std::vector<net::HostId> hosts, const NodeConfig& cfg, NodeStreams streams);

  /// Starts every node (hellos, state flooding).
  void start();
  /// Starts (if needed) and runs the simulation — the sharded kernel when the
  /// internet has one — long enough for hellos, LSAs and group state to
  /// stabilize.
  void settle(sim::Duration how_long = sim::Duration::seconds(3));

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  OverlayNode& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const topo::Graph& designed_topology() const { return graph_; }
  sim::Simulator& simulator() { return internet_.simulator(); }
  /// Non-null iff the internet is sharded. Churn scripts schedule through the
  /// kernel's control-sim path so events land identically for any worker
  /// count.
  [[nodiscard]] sim::ShardedKernel* sharded_kernel() { return internet_.kernel(); }

 private:
  net::Internet& internet_;
  topo::Graph graph_;
  std::vector<std::unique_ptr<OverlayNode>> nodes_;
};

/// A linear chain fixture for controlled link-recovery experiments (Fig. 3,
/// Fig. 4): n_nodes overlay nodes in a line, consecutive pairs joined by
/// overlay links of `hop_latency` one-way. Overlay link n-1 joins node 0 and
/// node n-1 DIRECTLY, riding the same underlay fiber end-to-end — so "one
/// 50 ms path with end-to-end recovery" and "five 10 ms overlay links with
/// hop-by-hop recovery" run over identical physics.
struct ChainFixture {
  std::unique_ptr<net::Internet> internet;
  std::unique_ptr<OverlayNetwork> overlay;
  std::vector<net::LinkId> hop_links;      // backbone links (loss injection)
  std::vector<LinkBit> hop_overlay_links;  // overlay link i <-> i+1
  LinkBit direct_link = kInvalidLinkBit;   // overlay link 0 <-> n-1

  /// Mask selecting the hop-by-hop chain / the direct link.
  [[nodiscard]] LinkMask chain_mask() const {
    LinkMask m = 0;
    for (const LinkBit b : hop_overlay_links) m |= bit_of(b);
    return m;
  }
  [[nodiscard]] LinkMask direct_mask() const {
    SON_DCHECK(direct_link != kInvalidLinkBit, "a 2-node chain has no direct link");
    return bit_of(direct_link);
  }
};

struct ChainOptions {
  std::size_t n_nodes = 6;
  sim::Duration hop_latency = sim::Duration::milliseconds(10);
  double bandwidth_bps = 1e9;
  NodeConfig node;
};

[[nodiscard]] ChainFixture build_chain(sim::Simulator& sim, const ChainOptions& opts,
                                       sim::Rng rng);

/// Generic fixture: one overlay node per node of an arbitrary weighted graph
/// (weights = one-way fiber latency in ms), one ISP, one fiber per overlay
/// link. For research topologies that are not geographic maps.
struct GraphFixture {
  std::unique_ptr<net::Internet> internet;
  std::unique_ptr<OverlayNetwork> overlay;
  std::vector<net::HostId> hosts;
  /// Backbone link id per overlay edge (for loss/failure injection).
  std::vector<net::LinkId> fiber;
};

struct GraphOptions {
  double bandwidth_bps = 1e9;
  NodeConfig node;
};

[[nodiscard]] GraphFixture build_graph_fixture(sim::Simulator& sim, const topo::Graph& g,
                                               const GraphOptions& opts, sim::Rng rng);

/// Circulant overlay C_n(1,2): node i links to i±1 and i±2 (mod n). Vertex
/// connectivity 4 — every pair admits >= 3 node-disjoint paths. The standard
/// well-connected research topology for the intrusion-tolerance experiments.
[[nodiscard]] topo::Graph circulant_topology(std::size_t n, double ring_latency_ms = 10.0,
                                             double chord_latency_ms = 16.0);

}  // namespace son::overlay
