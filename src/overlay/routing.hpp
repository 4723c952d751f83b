// The routing level (Fig. 2): Link-State and Source-Based routing over the
// shared connectivity graph, plus multicast trees and anycast selection.
//
// Link-state forwarding state is maintained incrementally: refresh_spt()
// pulls the dirty-edge delta from the TopologyDb's change journal and
// repairs the shortest-path tree with topo::SptEngine (iSPF), falling back
// to a full Dijkstra only on the first build, after the journal window, or
// on a mass change. Next hops are resolved lazily per destination with a
// version-stamped memo, and the per-packet answers (multicast_links,
// adjacent_mask_links) come from reusable buffers, so steady-state
// forwarding allocates nothing.
#pragma once

#include <map>
#include <vector>

#include "overlay/group_state.hpp"
#include "overlay/link_state.hpp"
#include "overlay/types.hpp"
#include "topo/dissemination.hpp"
#include "topo/graph.hpp"

namespace son::overlay {

class Router {
 public:
  Router(NodeId self, const TopologyDb& topo_db, const GroupDb& group_db);

  // ---- Link-State routing ----------------------------------------------
  /// First overlay link on the min-cost path self -> dst; kInvalidLinkBit if
  /// dst is unreachable (or is self).
  [[nodiscard]] LinkBit next_hop(NodeId dst);

  /// Links (adjacent to self) to forward a multicast message on, given the
  /// tree rooted at `tree_src` spanning the current members of `group`.
  /// `arrived_on` is excluded (kInvalidLinkBit when self originated it).
  /// Returns ascending link bits in a buffer reused by the next call.
  [[nodiscard]] const std::vector<LinkBit>& multicast_links(NodeId tree_src, GroupId group,
                                                            LinkBit arrived_on);

  /// Anycast target: the nearest current member of `group` by routing cost;
  /// kInvalidNode if the group is empty/unreachable. Ties go to the lowest
  /// node id (members are scanned ascending with a strict <), so the choice
  /// is deterministic and independent of advertisement arrival order.
  [[nodiscard]] NodeId anycast_target(GroupId group);

  // ---- Source-Based routing ---------------------------------------------
  /// Computes the link bitmask the origin stamps on a message.
  [[nodiscard]] LinkMask source_mask(const ServiceSpec& spec, NodeId dst);

  /// Links adjacent to `self` that are in `mask`, excluding `arrived_on`.
  /// Returned in a buffer reused by the next call.
  [[nodiscard]] const std::vector<LinkBit>& adjacent_mask_links(LinkMask mask,
                                                                LinkBit arrived_on);

  /// The min-cost path cost to dst (ms), for diagnostics; infinity if
  /// unreachable.
  [[nodiscard]] double path_cost_to(NodeId dst);

  /// Membership eviction: immediately drops every cached answer involving a
  /// departed origin — multicast trees rooted at it and source masks toward
  /// it. The version-stamped sweep would age these out on the next topology
  /// or membership change anyway; the explicit evict bounds memory even when
  /// the departure itself is the last change for a while. Returns the number
  /// of cache entries dropped.
  std::size_t evict_origin(NodeId origin);

  /// Cache occupancy, exposed so tests can pin the eviction policy.
  [[nodiscard]] std::size_t tree_cache_size() const { return tree_cache_.size(); }
  [[nodiscard]] std::size_t mask_cache_size() const { return mask_cache_.size(); }

 private:
  void refresh_spt();
  /// Drops every cache entry stamped with a stale topology/group version.
  /// Runs at most once per (topo, group) version pair.
  void evict_stale_caches();
  [[nodiscard]] LinkBit resolve_next_hop(topo::NodeIndex dst);

  NodeId self_;
  const TopologyDb& topo_db_;
  const GroupDb& group_db_;

  // Incrementally repaired shortest-path tree from self.
  topo::SptEngine spt_;
  std::uint64_t spt_version_ = 0;

  // Lazy next-hop memo: next_hop_[dst] is valid iff hop_version_[dst] equals
  // the SPT version; resolving one destination stamps its whole parent
  // chain, so a refresh costs only the destinations actually queried.
  std::vector<LinkBit> next_hop_;
  std::vector<std::uint64_t> hop_version_;
  std::vector<topo::NodeIndex> chain_scratch_;

  // Reused result buffers (no per-packet allocation).
  std::vector<LinkBit> mcast_links_buf_;
  std::vector<LinkBit> mask_links_buf_;
  topo::EdgeSet delta_scratch_;

  // Multicast tree cache: (src, group) -> edges, stamped with both versions.
  // Stale-stamped entries are evicted on version change, and evict_origin()
  // drops a departed origin's entries eagerly, so the cache never outgrows
  // live (src, group) pairs across long churn runs.
  struct TreeEntry {
    std::uint64_t topo_version;
    std::uint64_t group_version;
    topo::EdgeSet edges;
  };
  std::map<std::pair<NodeId, GroupId>, TreeEntry> tree_cache_;

  // Source-mask cache: keyed by (scheme, k/fanin/fanout, dst); same
  // version-based eviction as the tree cache.
  struct MaskKey {
    RouteScheme scheme;
    std::uint8_t a;
    std::uint8_t b;
    NodeId dst;
    auto operator<=>(const MaskKey&) const = default;
  };
  struct MaskEntry {
    std::uint64_t topo_version;
    LinkMask mask;
  };
  std::map<MaskKey, MaskEntry> mask_cache_;
  std::uint64_t cache_swept_topo_ = 0;
  std::uint64_t cache_swept_group_ = 0;
};

}  // namespace son::overlay
