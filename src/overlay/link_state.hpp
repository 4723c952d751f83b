// Connectivity Graph Maintenance (Fig. 2): the shared global state about
// overlay links that every node maintains.
//
// "The limited number of nodes allows each overlay node to maintain global
// state concerning the condition of all other overlay nodes and the
// connections between them, allowing fast reactions to changes in the
// network, with the ability to route around problems at a sub-second scale."
//
// Each node periodically floods a sequence-numbered advertisement describing
// its adjacent links (up/down, measured latency, measured loss). The
// database combines both endpoints' reports into the current weighted
// connectivity graph used by the routing level.
//
// Updates are incremental: per-origin reports are indexed by LinkBit (O(1)
// report_from), apply() diffs the new advertisement against the stored one
// and records exactly the edges whose cost inputs changed in a bounded
// change journal, current_graph() recosts only those dirty edges, and
// routing consumers pull the same delta through changed_edges_since() to
// repair their shortest-path trees instead of recomputing them.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "overlay/types.hpp"
#include "topo/graph.hpp"

namespace son::overlay {

struct LinkReport {
  LinkBit link = kInvalidLinkBit;
  bool up = true;
  double latency_ms = 0.0;  // measured one-way latency (RTT/2 from hellos)
  double loss_rate = 0.0;   // measured hello loss
};

/// One node's view of its own adjacent links.
struct LinkStateAd {
  NodeId origin = kInvalidNode;
  std::uint64_t seq = 0;
  std::vector<LinkReport> links;
  /// Origin's incarnation number: bumped when the node restarts after a
  /// crash (its seq counter restarts at 1). Freshness is ordered by
  /// (incarnation, seq) lexicographically, so a rejoining node's first
  /// advertisement beats the high-seq state of its previous life. Last
  /// field so {origin, seq, links} aggregate init keeps meaning life 0.
  std::uint32_t incarnation = 0;
};

class TopologyDb {
 public:
  /// `base` is the designed overlay topology with propagation-latency
  /// weights (milliseconds); link bit b == edge index b of `base`.
  explicit TopologyDb(topo::Graph base);

  /// Integrates an advertisement. Returns true if it was newer than the
  /// stored one for that origin (callers flood it onward exactly then).
  /// Freshness is (incarnation, seq) lexicographic: stale or duplicate
  /// sequence numbers within an incarnation are rejected without a version
  /// bump, and an older incarnation is always stale. An accepted ad bumps
  /// the version even when its content is unchanged (the change journal then
  /// records an empty delta, so incremental consumers do no routing work for
  /// it).
  bool apply(const LinkStateAd& ad);

  /// Membership eviction: drops every link report stored for `origin`
  /// (journaling the affected edges dirty) while keeping its
  /// (incarnation, seq) floor, so stale floods from the departed life cannot
  /// re-install state. Returns true if any report was dropped.
  bool evict_origin(NodeId origin);

  /// Ablation knob: when false, link_cost ignores measured loss and uses
  /// latency alone (plain shortest-latency routing). Journals every edge as
  /// dirty (a mass change: consumers fall back to a full recompute).
  void set_loss_aware(bool aware);

  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::uint64_t stored_seq(NodeId origin) const;
  [[nodiscard]] std::uint32_t stored_incarnation(NodeId origin) const;

  /// A link is up iff neither endpoint has reported it down.
  [[nodiscard]] bool link_up(LinkBit b) const;
  /// Expected-latency routing cost of a link in ms: measured latency plus
  /// the expected extra round trips ARQ spends on its loss rate,
  /// lat + rtt * p/(1-p). Down links cost +infinity.
  [[nodiscard]] double link_cost(LinkBit b) const;

  /// The current connectivity graph: base topology with link_cost weights
  /// (down links weighted +infinity, which every routing algorithm treats
  /// as absent). Recosted lazily per version — only the dirty edges.
  [[nodiscard]] const topo::Graph& current_graph() const;
  [[nodiscard]] const topo::Graph& base_graph() const { return base_; }

  /// Collects into `out` the edges whose routing cost may have changed
  /// after `since_version` (deduplicated, ascending). Returns false when
  /// `since_version` predates the bounded change journal — the consumer
  /// must then recompute from scratch. An empty `out` with a true return
  /// (e.g. only duplicate-content refresh LSAs arrived) means nothing
  /// changed.
  [[nodiscard]] bool changed_edges_since(std::uint64_t since_version, topo::EdgeSet& out) const;

 private:
  struct PerOrigin {
    std::uint64_t seq = 0;
    std::uint32_t incarnation = 0;
    std::vector<LinkReport> links;
    /// LinkBit -> index into links (-1 absent); sized num_edges once the
    /// origin has reported at least once.
    std::vector<std::int32_t> slot_of;
  };
  [[nodiscard]] const LinkReport* report_from(NodeId origin, LinkBit b) const;
  /// Bumps the version and journals `dirty` as that version's delta.
  void record_change(const topo::EdgeSet& dirty);

  topo::Graph base_;
  std::vector<PerOrigin> by_origin_;
  bool loss_aware_ = true;
  std::uint64_t version_ = 1;

  // Change journal: entry i holds the edges dirtied by version
  // journal_first_ + i. Bounded; consumers older than the window rebuild.
  static constexpr std::size_t kJournalCap = 256;
  std::deque<topo::EdgeSet> journal_;
  std::uint64_t journal_first_ = 2;
  topo::EdgeSet journal_spare_;

  mutable topo::Graph current_;
  mutable std::uint64_t current_version_ = 0;
  mutable topo::EdgeSet dirty_scratch_;
  mutable topo::EdgeSet recost_scratch_;
  std::vector<LinkReport> old_links_scratch_;
};

}  // namespace son::overlay
