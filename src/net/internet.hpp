// The simulated Internet: multiple ISP backbones, peering, multihomed hosts.
//
// Substitution for the paper's real multi-ISP deployment (see DESIGN.md §2).
// The model separates the *actual* topology state (data plane truth) from the
// *believed* state (what routing has converged on). A failure takes effect in
// the data plane immediately, but routes keep using the believed topology
// until a BGP-style convergence delay elapses — packets forwarded into the
// failure are dropped ("kStaleRoute"). This reproduces the paper's contrast
// between sub-second overlay rerouting and "the 40 seconds to minutes that
// BGP may take to converge".
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "obs/counters.hpp"
#include "sim/hot.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace son::sim {
class ShardedKernel;
class ShardChannel;
}  // namespace son::sim

namespace son::net {

class Internet {
 public:
  struct Config {
    /// How long routing keeps using stale paths after a topology change.
    sim::Duration convergence_delay = sim::Duration::seconds(40);
    /// Per-router forwarding latency (hardware routers are fast).
    sim::Duration router_latency = sim::Duration::microseconds(50);
    std::uint8_t default_ttl = 64;
  };

  Internet(sim::Simulator& sim, sim::Rng rng, Config cfg);
  Internet(sim::Simulator& sim, sim::Rng rng);

  // ---- Topology construction ------------------------------------------
  IspId add_isp(std::string name);
  RouterId add_router(IspId isp, std::string name);
  /// Adds a bidirectional link. Routers may be in different ISPs (peering).
  LinkId add_link(RouterId a, RouterId b, const LinkConfig& cfg);
  HostId add_host(std::string name);
  /// Attaches a host to a router over an access link; hosts may attach to
  /// several routers in different ISPs (multihoming). Returns the index of
  /// this attachment in the host's attachment list.
  AttachIndex attach_host(HostId host, RouterId router, const LinkConfig& access);

  // ---- Data plane -------------------------------------------------------
  using Handler = std::function<void(const Datagram&)>;
  /// Binds the host's default handler (any destination port).
  void bind(HostId host, Handler handler);
  /// Binds a handler for one destination port — several daemons (e.g.
  /// parallel overlays) can share a machine, each on its own port. Port
  /// handlers take precedence over the default handler.
  void bind(HostId host, std::uint16_t port, Handler handler);

  struct SendOptions {
    /// Which of the sender's / receiver's attachments to use; kAnyAttach
    /// lets the internet pick the lowest-believed-latency combination.
    AttachIndex src_attach = kAnyAttach;
    AttachIndex dst_attach = kAnyAttach;
  };
  /// Injects a datagram; delivery (or silent loss) happens via events.
  /// Returns the assigned packet id.
  std::uint64_t send(Datagram d, const SendOptions& opts);
  std::uint64_t send(Datagram d) { return send(std::move(d), SendOptions{}); }

  // ---- Sharded execution -------------------------------------------------
  /// Fixed assignment of every router and host to a partition. The plan is a
  /// property of the topology (one partition per site), NOT of the worker
  /// count — results depend only on the plan, so any worker count reproduces
  /// them bit-identically.
  struct ShardPlan {
    std::size_t num_partitions = 1;
    std::vector<std::uint32_t> router_partition;  // indexed by RouterId
    std::vector<std::uint32_t> host_partition;    // indexed by HostId
  };

  /// Switches the data plane to sharded execution on `kernel`. Call after
  /// topology construction and before any traffic. Requirements (checked):
  /// the Internet must have been constructed over kernel.control_sim() (so
  /// failure injection and convergence run as global events), every host
  /// must be co-located with all of its attachment routers, and the plan
  /// must cover every router and host. Registers one cross-shard channel per
  /// ordered partition pair joined by a link; the channel lookahead is the
  /// smallest crossing-link propagation delay plus the per-hop router
  /// latency — the minimum time any packet needs to cross the cut.
  void enable_sharding(sim::ShardedKernel& kernel, ShardPlan plan);
  /// The kernel enable_sharding() bound, or nullptr while monolithic.
  [[nodiscard]] sim::ShardedKernel* kernel() const { return kernel_; }
  [[nodiscard]] std::uint32_t host_partition(HostId h) const { return plan_.host_partition[h]; }
  [[nodiscard]] std::uint32_t router_partition(RouterId r) const {
    return plan_.router_partition[r];
  }
  /// The simulator driving `host`'s partition (== simulator() when not
  /// sharded). Scenario code schedules traffic sources on it so a host's
  /// sends always execute inside the host's own partition.
  [[nodiscard]] sim::Simulator& host_sim(HostId h) { return *parts_[host_partition(h)].sim; }

  // ---- Failure injection / control --------------------------------------
  void set_link_up(LinkId link, bool up);
  void set_router_up(RouterId router, bool up);
  /// Takes every router and link of the ISP up or down.
  void set_isp_up(IspId isp, bool up);

  /// Direction accessor for loss injection: the direction from `from`.
  LinkDirection& link_dir(LinkId link, RouterId from);
  /// Access-link direction accessor for host-outage injection: the
  /// host -> router direction when `up` is true, router -> host otherwise.
  LinkDirection& access_dir(HostId host, AttachIndex attach, bool up);
  [[nodiscard]] LinkId find_link(RouterId a, RouterId b) const;
  [[nodiscard]] std::pair<RouterId, RouterId> link_endpoints(LinkId link) const;

  // ---- Introspection -----------------------------------------------------
  /// Believed one-way latency (propagation + router hops) between two host
  /// attachments, or nullopt if no believed route exists.
  [[nodiscard]] std::optional<sim::Duration> path_latency(HostId a, AttachIndex ai,
                                                          HostId b, AttachIndex bi) const;
  /// Believed router path (for tests / topology design).
  [[nodiscard]] std::optional<std::vector<RouterId>> path_routers(HostId a, AttachIndex ai,
                                                                  HostId b,
                                                                  AttachIndex bi) const;

  [[nodiscard]] std::size_t num_hosts() const { return hosts_.size(); }
  [[nodiscard]] std::size_t num_routers() const { return routers_.size(); }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] std::size_t attachments(HostId host) const;
  [[nodiscard]] IspId router_isp(RouterId r) const;
  [[nodiscard]] const std::string& router_name(RouterId r) const;

  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped[16] = {};  // indexed by DropReason
  };
  static_assert(kNumDropReasons <= sizeof(Counters::dropped) / sizeof(std::uint64_t),
                "Counters::dropped[] is too small for DropReason — grow the array");
  /// Totals folded across partitions (deterministic: plain per-partition
  /// sums, added in partition order).
  [[nodiscard]] Counters counters() const;

  /// Sum of bytes carried over all backbone link directions (both ways),
  /// excluding access links. Used by the multicast-efficiency benchmark.
  [[nodiscard]] std::uint64_t backbone_bytes_carried() const;

  /// Testing hook: rehashes the route caches to at least `buckets` buckets.
  /// Results must be invariant under any hash-table layout — the golden-run
  /// suite re-runs scenarios with different bucket counts (including a
  /// mid-run rehash) to prove nothing observes unordered iteration order.
  void rehash_route_cache(std::size_t buckets) const {
    for (const PartState& ps : parts_) ps.route_cache.rehash(buckets);
  }

  sim::Simulator& simulator() { return sim_; }

 private:
  struct Link {
    RouterId a;
    RouterId b;
    bool actually_up = true;
    bool believed_up = true;
    LinkDirection ab;  // direction a -> b
    LinkDirection ba;  // direction b -> a
  };
  struct Router {
    IspId isp;
    std::string name;
    bool actually_up = true;
    bool believed_up = true;
    std::vector<std::pair<RouterId, LinkId>> adj;
  };
  struct Attachment {
    RouterId router;
    LinkDirection up_link;    // host -> router
    LinkDirection down_link;  // router -> host
  };
  struct Host {
    std::string name;
    std::vector<Attachment> attaches;
    Handler handler;  // default (any port)
    std::map<std::uint16_t, Handler> port_handlers;
  };

  struct Step {
    LinkId link;
    RouterId next;
  };
  /// In-flight packets and the cache share one immutable path allocation, so
  /// send()/forward() never copy routes and cache clears never strand them.
  using RoutePtr = std::shared_ptr<const std::vector<Step>>;
  struct CachedRoute {
    RoutePtr path;  // null = no believed route
    sim::Duration latency = sim::Duration::zero();
  };
  // Cache key: (src router, dst router, isp constraint or kInvalidIsp for
  // global), packed into 64 bits (24 + 24 + 16).
  static constexpr std::uint64_t route_key(RouterId from, RouterId to, IspId isp) {
    return (static_cast<std::uint64_t>(from) << 40) | (static_cast<std::uint64_t>(to) << 16) |
           isp;
  }

  /// Per-partition execution state. A monolithic Internet has exactly one
  /// (index 0, sim == &sim_); enable_sharding() rebuilds the vector with one
  /// entry per partition. Everything a packet touches while in flight lives
  /// here, so two partitions never write the same memory inside a round.
  struct PartState {
    sim::Simulator* sim = nullptr;
    std::uint32_t index = 0;
    /// High bits of packet ids minted by this partition (partition << 48).
    /// Partition 0 tags with 0, so monolithic runs keep their historical
    /// plain ids — and the pinned golden delivery hashes.
    std::uint64_t id_tag = 0;
    std::uint64_t next_packet_id = 1;
    // Mutable: lookups from const introspection paths fill the cache too.
    mutable std::unordered_map<std::uint64_t, CachedRoute> route_cache;
    Counters counters;
    /// Outgoing cross-shard channels, indexed by destination partition
    /// (nullptr on the diagonal and for pairs with no connecting link).
    std::vector<sim::ShardChannel*> out;
  };

  /// Believed-topology Dijkstra. isp == kInvalidIsp allows all links.
  [[nodiscard]] std::optional<std::vector<Step>> compute_route(RouterId from, RouterId to,
                                                               IspId isp) const;
  /// Cached route + its believed latency; computes on miss.
  const CachedRoute& route_entry(const PartState& ps, RouterId from, RouterId to,
                                 IspId isp) const;
  [[nodiscard]] std::optional<sim::Duration> route_latency(const PartState& ps, RouterId from,
                                                           RouterId to, IspId isp) const;

  /// Chooses attachment indices per SendOptions; returns false if no route.
  bool resolve_attachments(const PartState& ps, HostId src, HostId dst, const SendOptions& opts,
                           AttachIndex& si, AttachIndex& di, IspId& constraint) const;

  SON_HOT void forward(Datagram d, RouterId at, RoutePtr path, std::size_t idx,
                       AttachIndex dst_attach, std::uint8_t ttl);
  void deliver(const Datagram& d, AttachIndex dst_attach);
  void drop(PartState& ps, const Datagram& d, DropReason reason);
  /// Schedules control-plane convergence after a topology change. Changes
  /// landing at the same instant share one convergence event (and one route
  /// cache clear) instead of scheduling one each.
  void schedule_convergence(std::function<void()> apply_belief);

  sim::Simulator& sim_;
  sim::Rng rng_;
  Config cfg_;

  std::vector<std::string> isps_;
  std::vector<Router> routers_;
  std::vector<Link> links_;
  std::vector<Host> hosts_;

  /// Belief updates batched per convergence instant (see schedule_convergence).
  std::map<sim::TimePoint, std::vector<std::function<void()>>> pending_convergence_;

  /// Partition states; size 1 until enable_sharding(). Indexed by partition.
  std::vector<PartState> parts_;
  sim::ShardedKernel* kernel_ = nullptr;
  /// Every router and host sits in partition 0 until enable_sharding().
  ShardPlan plan_;
  /// One per parts_[p].counters, republished whenever parts_ is rebuilt.
  std::deque<obs::Published> published_;
};

}  // namespace son::net
