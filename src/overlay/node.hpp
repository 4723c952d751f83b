// The overlay node daemon: session interface, routing level, link level
// (Fig. 2), hello-based link monitoring with multi-ISP channel failover,
// link-state and group-state flooding — all running as "a normal user-level
// program" on one underlay host.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "crypto/keys.hpp"
#include "net/internet.hpp"
#include "obs/counters.hpp"
#include "overlay/compromise.hpp"
#include "overlay/dedup.hpp"
#include "overlay/frame.hpp"
#include "overlay/group_state.hpp"
#include "overlay/link_protocols.hpp"
#include "overlay/link_state.hpp"
#include "overlay/membership.hpp"
#include "overlay/reorder_buffer.hpp"
#include "overlay/routing.hpp"
#include "sim/hot.hpp"
#include "sim/random.hpp"
#include "sim/timers.hpp"

namespace son::overlay {

struct NodeConfig {
  /// Hello cadence per underlay channel. With miss_threshold misses, a
  /// channel is declared dead; the link fails over to another ISP channel
  /// or, if none is alive, is advertised down (then: sub-second rerouting).
  sim::Duration hello_interval = sim::Duration::milliseconds(100);
  std::uint32_t hello_miss_threshold = 3;

  /// Membership: an origin silent (no LSA/GSA/hello evidence) for this long
  /// is declared departed on the state-refresh tick and ALL its per-origin
  /// state is evicted — topology reports, group joins, and the router's
  /// cached trees/masks. Zero disables eviction (the static-membership
  /// behavior); churn deployments set ~3-4x the 1 s state refresh so a live
  /// origin's periodic re-floods comfortably outrun the timeout.
  sim::Duration dead_origin_timeout = sim::Duration::zero();

  /// Ablation knob: route on expected latency including loss penalty (the
  /// design) vs raw latency only.
  bool loss_aware_routing = true;

  /// Hop-by-hop HMAC authentication (intrusion-tolerant deployments).
  bool authenticate = false;
  crypto::Key master_key{};

  /// UDP-style port the daemon listens on. Parallel overlays on the same
  /// machines use distinct ports (§II-D: "multiple overlays can even be run
  /// in parallel").
  std::uint16_t daemon_port = 8100;

  /// Per-flow accounting at the terminating session interface
  /// (session_flows()). At millions of concurrent flows the per-flow map
  /// dominates node memory, so heavy aggregate workloads switch it off;
  /// delivery, client handlers and node-level counters are unaffected.
  bool session_flow_accounting = true;

  LinkProtocolConfig link_protocols;
};

/// Handle a client holds after connecting to an overlay node (two-level
/// client-daemon hierarchy; the client runs on the node's machine).
class ClientEndpoint {
 public:
  /// (message, one-way latency from origin client send).
  using Handler = std::function<void(const Message&, sim::Duration)>;

  void set_handler(Handler h) { handler_ = std::move(h); }
  /// Sends one message on this client's flow to `dest`. Returns false if the
  /// node could not accept it (e.g. IT-Reliable backpressure reached the
  /// source, or no route).
  bool send(const Destination& dest, Payload payload, const ServiceSpec& spec);
  /// Like send(), but stamps an explicit origin time — used by compound
  /// flows (§V-C) so deadlines and latency accounting span the WHOLE flow,
  /// transformation included.
  bool send_with_origin(const Destination& dest, Payload payload, const ServiceSpec& spec,
                        sim::TimePoint origin_time);
  /// Flyweight path used by client::FlowEngine. The caller supplies a
  /// per-flow tag (distinguishing concurrent flows that share this endpoint
  /// and destination) and carries the flow's sequence numbers itself, so the
  /// endpoint keeps NO per-flow state — one endpoint can originate millions
  /// of flows. Service selection and routing behave exactly like send().
  bool send_flow(const Destination& dest, Payload payload, const ServiceSpec& spec,
                 std::uint32_t flow_tag, std::uint64_t flow_seq);
  void join(GroupId g);
  void leave(GroupId g);

  [[nodiscard]] NodeId node() const;
  [[nodiscard]] VirtualPort port() const { return port_; }

 private:
  friend class OverlayNode;
  ClientEndpoint(class OverlayNode& node, VirtualPort port) : node_{node}, port_{port} {}

  OverlayNode& node_;
  VirtualPort port_;
  Handler handler_;
  std::vector<GroupId> joined_;
  std::map<std::uint64_t, std::uint64_t> flow_seq_;  // per flow_key
};

/// Per-flow state the session interface maintains for each flow it
/// terminates (§II-C flow-based processing: "a flow consists of a source,
/// one or more destinations, and the overlay services selected for that
/// flow").
struct FlowStats {
  NodeId origin = kInvalidNode;
  VirtualPort src_port = 0;
  Destination dest;
  LinkProtocol link_protocol = LinkProtocol::kBestEffort;
  RouteScheme scheme = RouteScheme::kLinkState;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  std::uint64_t highest_seq = 0;
  /// Sequence jumps observed at delivery (loss or reordering upstream).
  std::uint64_t gaps = 0;
  sim::Duration ewma_latency = sim::Duration::zero();
  sim::Duration max_latency = sim::Duration::zero();
  sim::TimePoint last_delivery;
};

struct NodeStats {
  std::uint64_t originated = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delivered_local = 0;
  std::uint64_t dedup_dropped = 0;
  std::uint64_t no_route = 0;         // routing level had no next hop
  std::uint64_t origin_no_route = 0;  // send refused at origin: no anycast target or mask
  std::uint64_t compromised_dropped = 0;
  std::uint64_t protocol_drops = 0;
  std::uint64_t send_blocked = 0;  // IT backpressure refused at origin
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t link_failovers = 0;  // ISP channel switches
  std::uint64_t lsa_floods = 0;
  /// Frames an authenticated deployment refused: a tagged frame whose tag is
  /// missing or wrong, or an untagged one claiming a newer peer incarnation.
  std::uint64_t auth_failures = 0;
  std::uint64_t ttl_expired = 0;            // overlay-level loop protection
  std::uint64_t origin_evictions = 0;       // departed origins swept from the DBs
  std::uint64_t cache_evictions = 0;        // router cache entries those sweeps dropped
  std::uint64_t stale_incarnation_drops = 0;  // pre-crash ghost frames dropped
  std::uint64_t peer_restarts_seen = 0;       // neighbor incarnation bumps observed
  std::uint64_t sign_ops = 0;    // data-frame HMAC tags computed (crypto.sign_ops)
  std::uint64_t verify_ops = 0;  // data-frame HMAC tags checked (crypto.verify_ops)
};

class OverlayNode {
 public:
  /// An underlay path option for one overlay link (which ISP attachment to
  /// use on each side). A link with several channels can fail over between
  /// ISPs without any overlay-level rerouting.
  struct Channel {
    net::AttachIndex local = 0;
    net::AttachIndex remote = 0;
  };
  struct NeighborSpec {
    LinkBit link = kInvalidLinkBit;
    NodeId peer = kInvalidNode;
    net::HostId peer_host = net::kInvalidHost;
    std::vector<Channel> channels;
  };

  /// Runs on internet.host_sim(host), the simulator of the host's partition.
  OverlayNode(net::Internet& internet, net::HostId host, NodeId id,
              topo::Graph overlay_topology, std::vector<NeighborSpec> neighbors,
              NodeConfig cfg, sim::Rng rng);
  OverlayNode(const OverlayNode&) = delete;
  OverlayNode& operator=(const OverlayNode&) = delete;

  /// Starts hellos and state refresh. Call after all nodes are constructed.
  void start();

  /// Session interface: connects a local client on a virtual port.
  ClientEndpoint& connect(VirtualPort port);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] net::HostId host() const { return host_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  /// Per-flow statistics for every flow this node's session has delivered
  /// locally, keyed by flow_key.
  [[nodiscard]] const std::map<std::uint64_t, FlowStats>& session_flows() const {
    return flow_stats_;
  }
  [[nodiscard]] const TopologyDb& topology() const { return topo_db_; }
  [[nodiscard]] const GroupDb& groups() const { return group_db_; }
  Router& router() { return router_; }

  /// Current health of an adjacent link as this node sees it.
  struct LinkHealth {
    bool up = false;
    int active_channel = -1;
    double loss_estimate = 0.0;
    sim::Duration srtt = sim::Duration::zero();
  };
  [[nodiscard]] LinkHealth link_health(LinkBit b) const;

  /// Link bits of this node's adjacent links (bench/test introspection).
  [[nodiscard]] std::vector<LinkBit> link_bits() const;

  void set_compromise(const CompromiseBehavior& b) { compromise_ = b; }
  [[nodiscard]] bool compromised() const { return compromise_.active; }

  /// Crash-stop failure: a crashed node sends nothing (hellos included — its
  /// neighbors detect the silence and advertise the links down) and ignores
  /// everything it receives. Restore with set_crashed(false); the node
  /// resumes with its pre-crash state (fail-recover model with stable
  /// storage). For a recovery that LOST volatile state, use restart().
  void set_crashed(bool crashed);
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Cold crash-recovery: the process comes back with its volatile state
  /// gone. Bumps the incarnation number (carried in every frame, LSA and
  /// GSA, and folded into origin ids), restarts the per-origin counters and
  /// sequence numbers at their initial values, resets every link's channel
  /// probers and protocol endpoints, forgets learned topology/group/
  /// membership state (relearned from floods within ~1 s), and
  /// immediately re-advertises under the new incarnation. What it knew of
  /// its peers' incarnations stays. Also clears the crashed flag, so
  /// crash(t) + restart(t') scripts a crash-recover cycle.
  void restart();
  /// This node's current incarnation number (0 until the first restart).
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }
  /// Membership view of the whole overlay as this node sees it.
  [[nodiscard]] const MembershipDb& membership() const { return membership_; }

  /// The protocol endpoint instance for (link, proto), if one has been
  /// created by traffic; nullptr otherwise. For stats inspection
  /// (dynamic_cast to the concrete endpoint type to read its Stats).
  [[nodiscard]] LinkProtocolEndpoint* find_endpoint(LinkBit b, LinkProtocol proto);

  struct ForwardAuthResult {
    LinkBit egress = kInvalidLinkBit;  // routed outgoing link
    bool verified = false;
    crypto::Tag resigned{};
  };

  /// Forwarding hot path, exposed for the §II-D processing-cost
  /// microbenchmark: routing lookup + header handling for one message and,
  /// in IT mode, the per-hop HMAC verify + re-sign a transit node performs.
  /// The verify is keyed to the peer of `arrived_on` (the ingress link) and
  /// the re-sign to the peer of the routed egress link — two distinct
  /// pairwise keys, exactly as in real forwarding. Pass `in_auth` (built
  /// once with bench_make_arrival_tag, outside the timed loop) so the loop
  /// measures exactly verify + re-sign.
  ForwardAuthResult bench_forward_lookup(const Message& msg, LinkBit arrived_on,
                                         const crypto::Tag* in_auth = nullptr);
  /// The tag `msg` carries when it arrives on `arrived_on` (i.e. what that
  /// link's peer signs toward this node — the pairwise key is symmetric).
  [[nodiscard]] crypto::Tag bench_make_arrival_tag(const Message& msg,
                                                   LinkBit arrived_on) const;

 private:
  struct ChannelState {
    Channel attach;
    /// Up/down hysteresis over hello outcomes (configured from
    /// hello_miss_threshold and kHelloUpThreshold in node.cpp).
    LivenessProber prober;
    std::uint64_t next_hello_seq = 1;
    std::map<std::uint64_t, sim::TimePoint> outstanding;  // hello seq -> sent
    std::deque<bool> window;                              // recent hello outcomes
    sim::Duration srtt = sim::Duration::milliseconds(10);
  };
  struct NeighborLink {
    NeighborSpec spec;
    std::vector<ChannelState> channels;
    int active_channel = 0;
    bool up = true;
    // Last values advertised in our LSA (change detection).
    bool adv_up = true;
    double adv_latency_ms = 0.0;
    double adv_loss = 0.0;
    /// Highest incarnation seen from the peer on this link. A frame carrying
    /// a higher one means the peer restarted: all per-link protocol state
    /// (receive windows, ack state) is void and the endpoints are reset.
    /// Frames from an older incarnation are dropped as pre-crash ghosts.
    std::uint32_t peer_incarnation = 0;
    // The endpoints hold ctx, so it is declared first.
    std::unique_ptr<LinkContext> ctx;
    std::map<LinkProtocol, std::unique_ptr<LinkProtocolEndpoint>> endpoints;
  };

  friend class NodeLinkContext;
  friend class ClientEndpoint;

  // --- Session level ---
  bool client_send(ClientEndpoint& client, const Destination& dest, Payload payload,
                   const ServiceSpec& spec, sim::TimePoint origin_time);
  /// Shared origination body: flow identity (key + seq) is supplied by the
  /// caller — client_send derives it from the endpoint's per-flow map,
  /// send_flow from the FlowEngine's tagged flow rows.
  bool client_send_impl(ClientEndpoint& client, const Destination& dest, Payload payload,
                        const ServiceSpec& spec, sim::TimePoint origin_time,
                        std::uint64_t flow_key, std::uint64_t flow_seq,
                        std::uint32_t source_tag);
  /// Unique message id layout: (origin << 48) | (incarnation low byte << 40)
  /// | per-incarnation counter. Folding the incarnation in keeps a restarted
  /// origin's ids disjoint from its pre-crash ids, so dedup caches and
  /// receive windows keyed by origin_id are implicitly (origin, incarnation)
  /// keyed. Incarnation 0 reproduces the original layout bit-for-bit.
  [[nodiscard]] std::uint64_t make_origin_id() {
    return (std::uint64_t{id_} << 48) |
           (std::uint64_t{incarnation_ & 0xFF} << 40) |
           (next_origin_counter_++ & ((std::uint64_t{1} << 40) - 1));
  }
  void refresh_group_ad();
  void deliver_to_session(const Message& msg);
  void deliver_to_client(const Message& msg);

  // --- Routing level ---
  /// Handles a message arriving from a link (or locally originated with
  /// arrived_on == kInvalidLinkBit). Returns admission (for backpressure).
  bool route_message(Message msg, LinkBit arrived_on);
  bool route_message_impl(Message msg, LinkBit arrived_on, bool skip_compromise);
  bool forward_on(LinkBit link, const Message& msg);

  // --- Link level / underlay ---
  void on_datagram(const net::Datagram& d);
  void on_frame(const LinkFrame& f);
  void send_frame_on_link(NeighborLink& nl, LinkFrame f);

  // --- Per-hop authentication: the one place frames are tagged and checked ---
  /// The frames an authenticated deployment tags: hello, hello-reply, LSA
  /// and GSA frames, and IT-Priority / IT-Reliable frames carrying a message.
  [[nodiscard]] static bool is_tagged(const LinkFrame& f);
  /// A message's per-hop tag: the 64-byte auth head, then the payload.
  SON_HOT [[nodiscard]] static crypto::Tag message_tag(const crypto::HmacKey& mac,
                                                       const Message& m);
  /// A tagged frame's tag: message_tag for data, else the 27-byte control
  /// head then the advertisement suffix (serialized into node scratch).
  SON_HOT [[nodiscard]] crypto::Tag frame_tag(const crypto::HmacKey& mac, const LinkFrame& f);
  /// Tags `f` for `peer`; sign_ops counts data-frame tags.
  SON_HOT void sign_frame(LinkFrame& f, NodeId peer);
  /// Checks `f`'s tag under its sender's pairwise key; verify_ops counts the
  /// data-frame tags checked.
  SON_HOT [[nodiscard]] bool verify_frame(const LinkFrame& f);
  NeighborLink* link_by_bit(LinkBit b);
  LinkProtocolEndpoint& endpoint(NeighborLink& nl, LinkProtocol proto);

  // --- Membership & churn ---
  /// Frame-level incarnation discipline for a frame from `nl`'s peer:
  /// returns false (drop) for pre-crash ghosts, and resets the link's
  /// protocol endpoints when the peer restarted. Only a `trusted` frame (any
  /// frame unauthenticated, a verified tagged one authenticated) is
  /// membership evidence and may raise the peer's incarnation; an untagged
  /// frame is admitted only at exactly the incarnation already learned.
  bool admit_peer_incarnation(NeighborLink& nl, const LinkFrame& f, bool trusted);
  /// Sweeps origins silent past dead_origin_timeout and evicts their state.
  void sweep_departed_origins();

  // --- Hello protocol & link health ---
  void hello_tick();
  void send_hello(NeighborLink& nl, std::size_t channel_idx);
  void handle_hello(NeighborLink& nl, const LinkFrame& f);
  void handle_hello_reply(NeighborLink& nl, const LinkFrame& f);
  void evaluate_link(NeighborLink& nl);
  [[nodiscard]] double channel_loss(const ChannelState& ch) const;

  // --- State flooding ---
  void refresh_link_ad(bool force_flood);
  /// Floods one advertisement on every link but `arrived_on`, kFloodCopies
  /// times each. Every frame of the fan-out carries the same `ad` handle.
  void flood_control(FrameType type, const net::PayloadRef& ad, LinkBit arrived_on);
  void handle_lsa(const LinkFrame& f);
  void handle_group_state(const LinkFrame& f);
  void state_refresh_tick();

  sim::Simulator& sim_;
  net::Internet& internet_;
  net::HostId host_;
  NodeId id_;
  NodeConfig cfg_;
  sim::Rng rng_;

  TopologyDb topo_db_;
  GroupDb group_db_;
  Router router_;
  DedupCache dedup_;
  MembershipDb membership_;
  std::vector<NeighborLink> links_;

  std::map<VirtualPort, std::unique_ptr<ClientEndpoint>> clients_;
  std::map<std::uint64_t, std::unique_ptr<ReorderBuffer>> reorder_;  // by flow_key
  std::map<std::uint64_t, FlowStats> flow_stats_;                    // by flow_key

  std::unique_ptr<crypto::KeyTable> keys_;
  CompromiseBehavior compromise_;
  bool crashed_ = false;

  // Control-frame auth suffix scratch: capacity only grows, so the steady
  // state (after the first few ads) signs and verifies without heap
  // allocation.
  std::vector<std::uint8_t> auth_suffix_scratch_;

  std::uint64_t own_lsa_seq_ = 0;
  std::uint64_t own_group_seq_ = 0;
  std::uint64_t next_origin_counter_ = 1;
  std::uint32_t incarnation_ = 0;
  std::vector<NodeId> departed_scratch_;
  // Hello and refresh ticks, flood copies and the per-frame delay hops.
  sim::Timers timers_{sim_};
  bool started_ = false;

  NodeStats stats_;
  obs::Published published_;  // exports stats_ (kCounterFields in node.cpp)
};

}  // namespace son::overlay
