#include "net/internet.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <string>

#include "obs/recorder.hpp"
#include "sim/check.hpp"
#include "sim/shard.hpp"

namespace son::net {
namespace {
// Drop rows are net.drop.<to_string(reason)>, indexed by DropReason.
constexpr obs::Field kCounterFields[] = {
    {"net.sent", offsetof(Internet::Counters, sent)},
    {"net.delivered", offsetof(Internet::Counters, delivered)},
    {"net.drop.none", offsetof(Internet::Counters, dropped[0])},
    {"net.drop.random-loss", offsetof(Internet::Counters, dropped[1])},
    {"net.drop.link-down", offsetof(Internet::Counters, dropped[2])},
    {"net.drop.router-down", offsetof(Internet::Counters, dropped[3])},
    {"net.drop.queue-overflow", offsetof(Internet::Counters, dropped[4])},
    {"net.drop.no-route", offsetof(Internet::Counters, dropped[5])},
    {"net.drop.stale-route", offsetof(Internet::Counters, dropped[6])},
    {"net.drop.ttl-expired", offsetof(Internet::Counters, dropped[7])},
    {"net.drop.no-handler", offsetof(Internet::Counters, dropped[8])},
};
static_assert(std::size(kCounterFields) == 2 + kNumDropReasons, "one row per DropReason");
}  // namespace

Internet::Internet(sim::Simulator& sim, sim::Rng rng, Config cfg)
    : sim_{sim}, rng_{rng}, cfg_{cfg} {
  parts_.resize(1);
  parts_[0].sim = &sim_;
  published_.emplace_back(&parts_[0].counters, kCounterFields);
}

Internet::Internet(sim::Simulator& sim, sim::Rng rng) : Internet{sim, rng, Config{}} {}

IspId Internet::add_isp(std::string name) {
  isps_.push_back(std::move(name));
  return static_cast<IspId>(isps_.size() - 1);
}

RouterId Internet::add_router(IspId isp, std::string name) {
  assert(isp < isps_.size());
  routers_.push_back(Router{isp, std::move(name), true, true, {}});
  plan_.router_partition.push_back(0);
  return static_cast<RouterId>(routers_.size() - 1);
}

LinkId Internet::add_link(RouterId a, RouterId b, const LinkConfig& cfg) {
  assert(a < routers_.size() && b < routers_.size() && a != b);
  SON_DCHECK(kernel_ == nullptr, "topology is frozen once enable_sharding has run");
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, true, true,
                        LinkDirection{cfg, rng_.fork(0x11000 + id)},
                        LinkDirection{cfg, rng_.fork(0x12000 + id)}});
  routers_[a].adj.emplace_back(b, id);
  routers_[b].adj.emplace_back(a, id);
  for (PartState& ps : parts_) ps.route_cache.clear();
  return id;
}

HostId Internet::add_host(std::string name) {
  hosts_.push_back(Host{std::move(name), {}, nullptr, {}});
  plan_.host_partition.push_back(0);
  return static_cast<HostId>(hosts_.size() - 1);
}

AttachIndex Internet::attach_host(HostId host, RouterId router, const LinkConfig& access) {
  assert(host < hosts_.size() && router < routers_.size());
  SON_DCHECK(kernel_ == nullptr, "topology is frozen once enable_sharding has run");
  auto& h = hosts_[host];
  const auto idx = static_cast<AttachIndex>(h.attaches.size());
  h.attaches.push_back(
      Attachment{router, LinkDirection{access, rng_.fork(0x21000 + host * 8u + idx)},
                 LinkDirection{access, rng_.fork(0x22000 + host * 8u + idx)}});
  return idx;
}

void Internet::bind(HostId host, Handler handler) {
  assert(host < hosts_.size());
  hosts_[host].handler = std::move(handler);
}

void Internet::bind(HostId host, std::uint16_t port, Handler handler) {
  assert(host < hosts_.size());
  hosts_[host].port_handlers[port] = std::move(handler);
}

std::size_t Internet::attachments(HostId host) const { return hosts_.at(host).attaches.size(); }
IspId Internet::router_isp(RouterId r) const { return routers_.at(r).isp; }
const std::string& Internet::router_name(RouterId r) const { return routers_.at(r).name; }

// ---- Routing (believed topology) -----------------------------------------

std::optional<std::vector<Internet::Step>> Internet::compute_route(RouterId from, RouterId to,
                                                                   IspId isp) const {
  if (from == to) return std::vector<Step>{};
  if (!routers_[from].believed_up || !routers_[to].believed_up) return std::nullopt;

  const auto n = routers_.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);
  std::vector<Step> prev(n, Step{kInvalidLink, kInvalidRouter});
  using QE = std::pair<double, RouterId>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  dist[from] = 0.0;
  pq.emplace(0.0, from);

  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == to) break;
    for (const auto& [v, lid] : routers_[u].adj) {
      const Link& l = links_[lid];
      if (!l.believed_up || !routers_[v].believed_up) continue;
      if (isp != kInvalidIsp && (routers_[u].isp != isp || routers_[v].isp != isp)) continue;
      const double w = l.ab.config().prop_delay.to_seconds_f() +
                       cfg_.router_latency.to_seconds_f();
      if (dist[u] + w < dist[v]) {
        dist[v] = dist[u] + w;
        prev[v] = Step{lid, u};  // `next` field reused to hold predecessor here
        pq.emplace(dist[v], v);
      }
    }
  }
  if (dist[to] == kInf) return std::nullopt;

  std::vector<Step> path;
  for (RouterId v = to; v != from; v = prev[v].next) {
    path.push_back(Step{prev[v].link, v});
  }
  std::reverse(path.begin(), path.end());
  return path;
}

const Internet::CachedRoute& Internet::route_entry(const PartState& ps, RouterId from,
                                                   RouterId to, IspId isp) const {
  SON_DCHECK(from < (1u << 24) && to < (1u << 24),
             "route_key packs router ids into 24 bits");
  const std::uint64_t key = route_key(from, to, isp);
  auto it = ps.route_cache.find(key);
  if (it == ps.route_cache.end()) {
    CachedRoute entry;
    if (auto path = compute_route(from, to, isp)) {
      for (const auto& step : *path) {
        entry.latency += links_[step.link].ab.config().prop_delay + cfg_.router_latency;
      }
      entry.path = std::make_shared<const std::vector<Step>>(std::move(*path));
    }
    it = ps.route_cache.emplace(key, std::move(entry)).first;
  }
  // Cache invariant: an entry either has no path (negative cache) or a path
  // whose recomputed latency matches the cached one — a mismatch means a
  // topology change slipped past the convergence-time cache clear.
  SON_DCHECK(it->second.path != nullptr || it->second.latency == sim::Duration::zero(),
             "negative route-cache entry carries a latency");
  return it->second;
}

std::optional<sim::Duration> Internet::route_latency(const PartState& ps, RouterId from,
                                                     RouterId to, IspId isp) const {
  const CachedRoute& entry = route_entry(ps, from, to, isp);
  if (!entry.path) return std::nullopt;
  return entry.latency;
}

bool Internet::resolve_attachments(const PartState& ps, HostId src, HostId dst,
                                   const SendOptions& opts, AttachIndex& si, AttachIndex& di,
                                   IspId& constraint) const {
  const auto& hs = hosts_[src];
  const auto& hd = hosts_[dst];
  double best = std::numeric_limits<double>::infinity();
  bool found = false;

  const auto try_combo = [&](AttachIndex i, AttachIndex j) {
    const RouterId ra = hs.attaches[i].router;
    const RouterId rb = hd.attaches[j].router;
    // Prefer staying on a single provider ("on-net") when both attachments
    // share an ISP and an on-net route exists.
    IspId mode = kInvalidIsp;
    std::optional<sim::Duration> lat;
    if (routers_[ra].isp == routers_[rb].isp) {
      mode = routers_[ra].isp;
      lat = route_latency(ps, ra, rb, mode);
    }
    if (!lat) {
      mode = kInvalidIsp;
      lat = route_latency(ps, ra, rb, kInvalidIsp);
    }
    if (!lat) return;
    const double cost = lat->to_seconds_f() +
                        hs.attaches[i].up_link.config().prop_delay.to_seconds_f() +
                        hd.attaches[j].down_link.config().prop_delay.to_seconds_f();
    if (cost < best) {
      best = cost;
      si = i;
      di = j;
      constraint = mode;
      found = true;
    }
  };

  const auto src_range = opts.src_attach == kAnyAttach
                             ? std::pair<AttachIndex, AttachIndex>{0, static_cast<AttachIndex>(
                                                                          hs.attaches.size())}
                             : std::pair<AttachIndex, AttachIndex>{
                                   opts.src_attach, static_cast<AttachIndex>(opts.src_attach + 1)};
  const auto dst_range = opts.dst_attach == kAnyAttach
                             ? std::pair<AttachIndex, AttachIndex>{0, static_cast<AttachIndex>(
                                                                          hd.attaches.size())}
                             : std::pair<AttachIndex, AttachIndex>{
                                   opts.dst_attach, static_cast<AttachIndex>(opts.dst_attach + 1)};
  for (AttachIndex i = src_range.first; i < src_range.second; ++i) {
    for (AttachIndex j = dst_range.first; j < dst_range.second; ++j) {
      try_combo(i, j);
    }
  }
  return found;
}

// ---- Data plane ------------------------------------------------------------

std::uint64_t Internet::send(Datagram d, const SendOptions& opts) {
  assert(d.src < hosts_.size() && d.dst < hosts_.size());
  // Everything send() touches — packet ids, counters, route cache, the access
  // link, the clock — belongs to the source host's partition, so in a sharded
  // run the caller must invoke send() from an event on host_sim(d.src).
  PartState& ps = parts_[host_partition(d.src)];
  SON_DCHECK(ps.next_packet_id < (1ULL << 48), "per-partition packet-id space exhausted");
  d.id = ps.id_tag | ps.next_packet_id++;
  ++ps.counters.sent;

  AttachIndex si = 0, di = 0;
  IspId constraint = kInvalidIsp;
  if (!resolve_attachments(ps, d.src, d.dst, opts, si, di, constraint)) {
    drop(ps, d, DropReason::kNoRoute);
    return d.id;
  }
  auto& src_attach = hosts_[d.src].attaches[si];
  const RouterId first_router = src_attach.router;
  const RouterId last_router = hosts_[d.dst].attaches[di].router;

  const CachedRoute& entry = route_entry(ps, first_router, last_router, constraint);
  if (!entry.path) {
    drop(ps, d, DropReason::kNoRoute);
    return d.id;
  }

  const auto out = src_attach.up_link.transmit(ps.sim->now(), d.size_bytes);
  if (!out.delivered) {
    drop(ps, d, out.reason);
    return d.id;
  }
  // Share the path: in-flight packets hold a reference to the immutable
  // route, so it survives cache clears without ever being copied.
  const std::uint64_t id = d.id;
  ps.sim->schedule_at(out.arrival, [this, d = std::move(d), first_router, path = entry.path, di,
                                    ttl = cfg_.default_ttl]() mutable {
    forward(std::move(d), first_router, std::move(path), 0, di, ttl);
  });
  return id;
}

void Internet::forward(Datagram d, RouterId at, RoutePtr path, std::size_t idx,
                       AttachIndex dst_attach, std::uint8_t ttl) {
  // Runs inside `at`'s partition. Each LinkDirection stays single-writer:
  // direction a→b is only ever transmitted on from a's partition.
  PartState& ps = parts_[router_partition(at)];
  if (!routers_[at].actually_up) {
    drop(ps, d, DropReason::kRouterDown);
    return;
  }
  if (ttl == 0) {
    drop(ps, d, DropReason::kTtlExpired);
    return;
  }

  if (idx == path->size()) {
    // Final router: deliver over the destination's access link. The host is
    // co-located with this router (enable_sharding enforces it), so the
    // delivery stays inside this partition.
    auto& attach = hosts_[d.dst].attaches[dst_attach];
    const auto out = attach.down_link.transmit(ps.sim->now(), d.size_bytes);
    if (!out.delivered) {
      drop(ps, d, out.reason);
      return;
    }
    ps.sim->schedule_at(out.arrival,
                        [this, d = std::move(d), dst_attach]() { deliver(d, dst_attach); });
    return;
  }

  const Step step = (*path)[idx];
  Link& l = links_[step.link];
  if (!l.actually_up) {
    drop(ps, d, l.believed_up ? DropReason::kStaleRoute : DropReason::kLinkDown);
    return;
  }
  LinkDirection& dir = (l.a == at) ? l.ab : l.ba;
  const auto out = dir.transmit(ps.sim->now(), d.size_bytes);
  if (!out.delivered) {
    drop(ps, d, out.reason);
    return;
  }
  const sim::TimePoint when = out.arrival + cfg_.router_latency;
  auto cont = [this, d = std::move(d), step, path = std::move(path), idx, dst_attach,
               ttl]() mutable {
    forward(std::move(d), step.next, std::move(path), idx + 1, dst_attach,
            static_cast<std::uint8_t>(ttl - 1));
  };
  const std::uint32_t pn = router_partition(step.next);
  if (pn == ps.index) {
    ps.sim->schedule_at(when, std::move(cont));
  } else {
    // Cross-partition hop: hand the continuation to the channel. The
    // lookahead bound holds because arrival >= now + prop_delay >= round
    // floor + min crossing prop_delay, and `when` adds the router latency.
    sim::ShardChannel* ch = ps.out[pn];
    SON_DCHECK(ch != nullptr, "cross-partition hop with no registered channel");
    // son-analyze: allow(hot-path-alloc) "ShardChannel::push is the sanctioned cross-partition carrier (see shard.hpp)"
    ch->push(when, std::move(cont));
  }
}

void Internet::deliver(const Datagram& d, AttachIndex) {
  PartState& ps = parts_[host_partition(d.dst)];
  const auto& h = hosts_[d.dst];
  const auto it = h.port_handlers.find(d.dst_port);
  if (it != h.port_handlers.end()) {
    ++ps.counters.delivered;
    it->second(d);
    return;
  }
  if (!h.handler) {
    drop(ps, d, DropReason::kNoHandler);
    return;
  }
  ++ps.counters.delivered;
  h.handler(d);
}

void Internet::drop(PartState& ps, const Datagram& d, DropReason reason) {
  ++ps.counters.dropped[static_cast<std::size_t>(reason)];
  // Partition p records to its own system ring (kSystemNode - p) so rings
  // stay single-writer under parallel execution.
  SON_OBS(static_cast<std::uint16_t>(obs::kSystemNode - ps.index), obs::Category::kDrop, reason,
          d.id, (static_cast<std::uint64_t>(d.src) << 32) | d.dst);
}

// ---- Failures / control ----------------------------------------------------

void Internet::schedule_convergence(std::function<void()> apply_belief) {
  // Coalesce: N topology changes converging at the same instant share one
  // event applying all beliefs (in change order) and one route-cache clear.
  const sim::TimePoint when = sim_.now() + cfg_.convergence_delay;
  const auto [it, inserted] = pending_convergence_.try_emplace(when);
  it->second.push_back(std::move(apply_belief));
  if (!inserted) return;
  sim_.schedule_at(when, [this, when]() {
    const auto batch = pending_convergence_.extract(when);
    for (const auto& apply : batch.mapped()) apply();
    for (PartState& ps : parts_) ps.route_cache.clear();
  });
}

void Internet::set_link_up(LinkId link, bool up) {
  // Topology mutations touch shared state: in a sharded run they must come
  // from global events (kernel.schedule_global), which execute with every
  // partition quiesced at a round barrier.
  SON_DCHECK(kernel_ == nullptr || !kernel_->in_round(),
             "set_link_up from a partition event — use schedule_global");
  links_.at(link).actually_up = up;
  schedule_convergence([this, link, up]() { links_[link].believed_up = up; });
}

void Internet::set_router_up(RouterId router, bool up) {
  SON_DCHECK(kernel_ == nullptr || !kernel_->in_round(),
             "set_router_up from a partition event — use schedule_global");
  routers_.at(router).actually_up = up;
  schedule_convergence([this, router, up]() { routers_[router].believed_up = up; });
}

void Internet::set_isp_up(IspId isp, bool up) {
  for (RouterId r = 0; r < routers_.size(); ++r) {
    if (routers_[r].isp == isp) set_router_up(r, up);
  }
}

LinkDirection& Internet::link_dir(LinkId link, RouterId from) {
  Link& l = links_.at(link);
  assert(l.a == from || l.b == from);
  return l.a == from ? l.ab : l.ba;
}

LinkDirection& Internet::access_dir(HostId host, AttachIndex attach, bool up) {
  Attachment& at = hosts_.at(host).attaches.at(attach);
  return up ? at.up_link : at.down_link;
}

std::pair<RouterId, RouterId> Internet::link_endpoints(LinkId link) const {
  const Link& l = links_.at(link);
  return {l.a, l.b};
}

LinkId Internet::find_link(RouterId a, RouterId b) const {
  for (const auto& [v, lid] : routers_.at(a).adj) {
    if (v == b) return lid;
  }
  return kInvalidLink;
}

std::optional<sim::Duration> Internet::path_latency(HostId a, AttachIndex ai, HostId b,
                                                    AttachIndex bi) const {
  SendOptions opts{ai, bi};
  AttachIndex si = 0, di = 0;
  IspId constraint = kInvalidIsp;
  const PartState& ps = parts_[host_partition(a)];
  if (!resolve_attachments(ps, a, b, opts, si, di, constraint)) return std::nullopt;
  const RouterId ra = hosts_[a].attaches[si].router;
  const RouterId rb = hosts_[b].attaches[di].router;
  auto lat = route_latency(ps, ra, rb, constraint);
  if (!lat) return std::nullopt;
  return *lat + hosts_[a].attaches[si].up_link.config().prop_delay +
         hosts_[b].attaches[di].down_link.config().prop_delay;
}

std::optional<std::vector<RouterId>> Internet::path_routers(HostId a, AttachIndex ai, HostId b,
                                                            AttachIndex bi) const {
  SendOptions opts{ai, bi};
  AttachIndex si = 0, di = 0;
  IspId constraint = kInvalidIsp;
  const PartState& ps = parts_[host_partition(a)];
  if (!resolve_attachments(ps, a, b, opts, si, di, constraint)) return std::nullopt;
  const RouterId ra = hosts_[a].attaches[si].router;
  const RouterId rb = hosts_[b].attaches[di].router;
  const CachedRoute& entry = route_entry(ps, ra, rb, constraint);
  if (!entry.path) return std::nullopt;
  std::vector<RouterId> out{ra};
  for (const auto& s : *entry.path) out.push_back(s.next);
  return out;
}

Internet::Counters Internet::counters() const {
  Counters total;
  for (const PartState& ps : parts_) {
    total.sent += ps.counters.sent;
    total.delivered += ps.counters.delivered;
    for (std::size_t r = 0; r < kNumDropReasons; ++r) {
      total.dropped[r] += ps.counters.dropped[r];
    }
  }
  return total;
}

// ---- Sharded execution -----------------------------------------------------

void Internet::enable_sharding(sim::ShardedKernel& kernel, ShardPlan plan) {
  SON_DCHECK(kernel_ == nullptr, "enable_sharding may only run once");
  SON_DCHECK(&kernel.control_sim() == &sim_,
             "a sharded Internet must be constructed over kernel.control_sim()");
  SON_DCHECK(plan.num_partitions >= 1 && plan.num_partitions == kernel.num_partitions(),
             "plan partition count must match the kernel");
  SON_DCHECK(plan.router_partition.size() == routers_.size(), "plan must cover every router");
  SON_DCHECK(plan.host_partition.size() == hosts_.size(), "plan must cover every host");

  kernel_ = &kernel;
  plan_ = std::move(plan);
  const std::size_t np = plan_.num_partitions;
  published_.clear();
  parts_.clear();
  parts_.resize(np);
  for (std::uint32_t p = 0; p < np; ++p) {
    parts_[p].sim = &kernel.shard_sim(p);
    parts_[p].index = p;
    parts_[p].id_tag = static_cast<std::uint64_t>(p) << 48;
    parts_[p].out.assign(np, nullptr);
    published_.emplace_back(&parts_[p].counters, kCounterFields);
  }

  // A host must be co-located with every router it attaches to: the access
  // links and the delivery path are partition-local state.
  for (HostId h = 0; h < hosts_.size(); ++h) {
    for (const Attachment& a : hosts_[h].attaches) {
      SON_DCHECK(plan_.router_partition[a.router] == plan_.host_partition[h],
                 "host attached to a router in another partition");
      (void)a;
    }
  }

  // One channel per ordered partition pair joined by at least one link;
  // lookahead = min crossing propagation delay + the per-hop router latency
  // (the continuation for a crossing hop is scheduled at arrival + latency).
  std::vector<std::int64_t> min_prop_ns(np * np, -1);
  for (const Link& l : links_) {
    const std::uint32_t pa = plan_.router_partition[l.a];
    const std::uint32_t pb = plan_.router_partition[l.b];
    if (pa == pb) continue;
    const std::int64_t prop = l.ab.config().prop_delay.ns();
    for (const std::size_t k : {pa * np + pb, pb * np + pa}) {
      if (min_prop_ns[k] < 0 || prop < min_prop_ns[k]) min_prop_ns[k] = prop;
    }
  }
  for (std::uint32_t src = 0; src < np; ++src) {
    for (std::uint32_t dst = 0; dst < np; ++dst) {
      const std::int64_t prop = min_prop_ns[src * np + dst];
      if (prop < 0) continue;
      parts_[src].out[dst] = &kernel.add_channel(
          src, dst, sim::Duration::nanoseconds(prop) + cfg_.router_latency);
    }
  }
}

std::uint64_t Internet::backbone_bytes_carried() const {
  std::uint64_t total = 0;
  for (const auto& l : links_) {
    total += l.ab.counters().bytes_delivered + l.ba.counters().bytes_delivered;
  }
  return total;
}

}  // namespace son::net
