#include "overlay/link_state.hpp"

#include <algorithm>
#include <limits>

namespace son::overlay {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_report(const LinkReport* a, const LinkReport* b) {
  if ((a == nullptr) != (b == nullptr)) return false;
  if (a == nullptr) return true;
  return a->up == b->up && a->latency_ms == b->latency_ms && a->loss_rate == b->loss_rate;
}
}  // namespace

TopologyDb::TopologyDb(topo::Graph base)
    : base_{std::move(base)}, by_origin_(base_.num_nodes()), current_{base_} {}

void TopologyDb::record_change(const topo::EdgeSet& dirty) {
  ++version_;
  // Recycle the evicted entry's capacity: in the steady state (journal at
  // cap) an accepted ad allocates nothing here.
  if (journal_.size() == kJournalCap) {
    journal_spare_ = std::move(journal_.front());
    journal_.pop_front();
    ++journal_first_;
  }
  journal_spare_.assign(dirty.begin(), dirty.end());
  journal_.push_back(std::move(journal_spare_));
}

bool TopologyDb::apply(const LinkStateAd& ad) {
  if (ad.origin >= by_origin_.size()) return false;
  PerOrigin& po = by_origin_[ad.origin];
  if (ad.incarnation < po.incarnation) return false;  // a previous life's flood
  if (ad.incarnation == po.incarnation && ad.seq <= po.seq) return false;
  po.incarnation = ad.incarnation;
  po.seq = ad.seq;
  const std::size_t num_edges = base_.num_edges();
  dirty_scratch_.clear();

  // Fast path: the ad re-reports exactly the stored link set in the stored
  // order — every periodic re-flood from a stable origin. Diff the values in
  // place; the LinkBit index is already correct.
  bool same_layout = po.links.size() == ad.links.size() && !po.links.empty();
  for (std::size_t i = 0; same_layout && i < po.links.size(); ++i) {
    same_layout = po.links[i].link == ad.links[i].link;
  }
  if (same_layout) {
    for (std::size_t i = 0; i < po.links.size(); ++i) {
      LinkReport& stored = po.links[i];
      const LinkReport& fresh = ad.links[i];
      if (!same_report(&stored, &fresh)) {
        stored = fresh;
        // Only the first occurrence of a bit is live in the index; a dead
        // duplicate slot must not dirty the edge.
        if (fresh.link < num_edges &&
            po.slot_of[fresh.link] == static_cast<std::int32_t>(i)) {
          dirty_scratch_.push_back(fresh.link);
        }
      }
    }
    std::sort(dirty_scratch_.begin(), dirty_scratch_.end());
    record_change(dirty_scratch_);
    return true;
  }

  // General path: swap the old report set out, install the new one, and
  // rebuild the per-LinkBit index (first occurrence wins, as the linear scan
  // used to).
  old_links_scratch_.swap(po.links);
  po.links = ad.links;
  po.slot_of.assign(num_edges, -1);
  for (std::size_t i = 0; i < po.links.size(); ++i) {
    const LinkBit b = po.links[i].link;
    if (b < num_edges && po.slot_of[b] < 0) po.slot_of[b] = static_cast<std::int32_t>(i);
  }

  // Diff old vs new per reported link: an edge is dirty iff this origin's
  // report for it changed (the cost also depends on the peer's report, but
  // that one did not move).
  const auto old_report = [&](LinkBit b) -> const LinkReport* {
    for (const LinkReport& r : old_links_scratch_) {
      if (r.link == b) return &r;
    }
    return nullptr;
  };
  for (const LinkReport& r : po.links) {
    if (r.link >= num_edges) continue;
    if (!same_report(old_report(r.link), report_from(ad.origin, r.link))) {
      dirty_scratch_.push_back(r.link);
    }
  }
  for (const LinkReport& r : old_links_scratch_) {
    if (r.link >= num_edges) continue;
    if (report_from(ad.origin, r.link) == nullptr) dirty_scratch_.push_back(r.link);
  }
  std::sort(dirty_scratch_.begin(), dirty_scratch_.end());
  dirty_scratch_.erase(std::unique(dirty_scratch_.begin(), dirty_scratch_.end()),
                       dirty_scratch_.end());
  record_change(dirty_scratch_);
  return true;
}

bool TopologyDb::evict_origin(NodeId origin) {
  if (origin >= by_origin_.size()) return false;
  PerOrigin& po = by_origin_[origin];
  if (po.links.empty()) return false;
  dirty_scratch_.clear();
  const std::size_t num_edges = base_.num_edges();
  for (const LinkReport& r : po.links) {
    if (r.link < num_edges) dirty_scratch_.push_back(r.link);
  }
  std::sort(dirty_scratch_.begin(), dirty_scratch_.end());
  dirty_scratch_.erase(std::unique(dirty_scratch_.begin(), dirty_scratch_.end()),
                       dirty_scratch_.end());
  po.links.clear();
  po.slot_of.assign(num_edges, -1);
  // po.seq / po.incarnation stay: they are the floor against stale floods.
  record_change(dirty_scratch_);
  return true;
}

void TopologyDb::set_loss_aware(bool aware) {
  loss_aware_ = aware;
  dirty_scratch_.resize(base_.num_edges());
  for (topo::EdgeIndex e = 0; e < base_.num_edges(); ++e) dirty_scratch_[e] = e;
  record_change(dirty_scratch_);
}

std::uint64_t TopologyDb::stored_seq(NodeId origin) const {
  return origin < by_origin_.size() ? by_origin_[origin].seq : 0;
}

std::uint32_t TopologyDb::stored_incarnation(NodeId origin) const {
  return origin < by_origin_.size() ? by_origin_[origin].incarnation : 0;
}

const LinkReport* TopologyDb::report_from(NodeId origin, LinkBit b) const {
  if (origin >= by_origin_.size()) return nullptr;
  const PerOrigin& po = by_origin_[origin];
  if (b >= po.slot_of.size()) return nullptr;
  const std::int32_t s = po.slot_of[b];
  return s < 0 ? nullptr : &po.links[static_cast<std::size_t>(s)];
}

bool TopologyDb::link_up(LinkBit b) const {
  const auto& e = base_.edge(b);
  const LinkReport* ru = report_from(static_cast<NodeId>(e.u), b);
  const LinkReport* rv = report_from(static_cast<NodeId>(e.v), b);
  if (ru != nullptr && !ru->up) return false;
  if (rv != nullptr && !rv->up) return false;
  return true;  // unreported links are assumed up (bootstrap)
}

double TopologyDb::link_cost(LinkBit b) const {
  if (!link_up(b)) return kInf;
  const auto& e = base_.edge(b);
  const LinkReport* ru = report_from(static_cast<NodeId>(e.u), b);
  const LinkReport* rv = report_from(static_cast<NodeId>(e.v), b);
  double cost = 0.0;
  bool reported = false;
  for (const LinkReport* r : {ru, rv}) {
    if (r == nullptr) continue;
    reported = true;
    const double p = loss_aware_ ? std::min(r->loss_rate, 0.99) : 0.0;
    const double c = r->latency_ms + 2.0 * r->latency_ms * p / (1.0 - p);
    cost = std::max(cost, c);
  }
  return reported ? cost : e.weight;  // fall back to designed latency
}

bool TopologyDb::changed_edges_since(std::uint64_t since_version, topo::EdgeSet& out) const {
  out.clear();
  if (since_version >= version_) return true;  // nothing newer
  if (since_version + 1 < journal_first_) return false;  // aged out of the journal
  for (std::uint64_t v = since_version + 1; v <= version_; ++v) {
    const topo::EdgeSet& entry = journal_[static_cast<std::size_t>(v - journal_first_)];
    out.insert(out.end(), entry.begin(), entry.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return true;
}

const topo::Graph& TopologyDb::current_graph() const {
  if (current_version_ != version_) {
    if (changed_edges_since(current_version_, recost_scratch_)) {
      for (const topo::EdgeIndex e : recost_scratch_) {
        current_.set_weight(e, link_cost(static_cast<LinkBit>(e)));
      }
    } else {
      for (topo::EdgeIndex e = 0; e < base_.num_edges(); ++e) {
        current_.set_weight(e, link_cost(static_cast<LinkBit>(e)));
      }
    }
    current_version_ = version_;
  }
  return current_;
}

}  // namespace son::overlay
