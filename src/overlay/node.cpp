#include "overlay/node.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "obs/recorder.hpp"

namespace son::overlay {

namespace {
std::uint64_t hash_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t flow_key_of(NodeId origin, VirtualPort port, const Destination& d) {
  std::uint64_t k = hash_mix((std::uint64_t{origin} << 32) | port);
  k = hash_mix(k ^ (std::uint64_t{static_cast<std::uint8_t>(d.kind)} << 56) ^
               (std::uint64_t{d.node} << 32) ^ (std::uint64_t{d.port} << 16) ^ d.group);
  return k;
}
}  // namespace

/// LinkContext implementation bridging a protocol endpoint to its node.
class NodeLinkContext final : public LinkContext {
 public:
  NodeLinkContext(OverlayNode& node, LinkBit bit) : node_{node}, bit_{bit} {}

  sim::Simulator& simulator() override { return node_.sim_; }
  sim::Rng& rng() override { return node_.rng_; }
  void send_frame(LinkFrame frame) override {
    auto* nl = node_.link_by_bit(bit_);
    assert(nl != nullptr);
    node_.send_frame_on_link(*nl, std::move(frame));
  }
  bool deliver_up(Message msg, LinkBit arrived_on) override {
    return node_.route_message(std::move(msg), arrived_on);
  }
  [[nodiscard]] sim::Duration rtt_estimate() const override {
    const auto health = node_.link_health(bit_);
    return health.srtt > sim::Duration::zero() ? health.srtt
                                               : sim::Duration::milliseconds(20);
  }
  [[nodiscard]] NodeId self() const override { return node_.id_; }
  [[nodiscard]] NodeId peer() const override {
    const auto* nl = const_cast<OverlayNode&>(node_).link_by_bit(bit_);
    return nl != nullptr ? nl->spec.peer : kInvalidNode;
  }
  [[nodiscard]] LinkBit link() const override { return bit_; }
  [[nodiscard]] bool authenticate() const override { return node_.cfg_.authenticate; }
  [[nodiscard]] const crypto::KeyTable* keys() const override { return node_.keys_.get(); }
  void count_protocol_drop(LinkProtocol) override {
    ++node_.stats_.protocol_drops;
    node_.obs_protocol_drops_.add();
  }

 private:
  OverlayNode& node_;
  LinkBit bit_;
};

// ---- Construction / startup --------------------------------------------------

OverlayNode::OverlayNode(sim::Simulator& sim, net::Internet& internet, net::HostId host,
                         NodeId id, topo::Graph overlay_topology,
                         std::vector<NeighborSpec> neighbors, NodeConfig cfg, sim::Rng rng)
    : sim_{sim},
      internet_{internet},
      host_{host},
      id_{id},
      cfg_{cfg},
      rng_{rng},
      topo_db_{std::move(overlay_topology)},
      group_db_{topo_db_.base_graph().num_nodes()},
      router_{id, topo_db_, group_db_},
      membership_{topo_db_.base_graph().num_nodes()} {
  const LivenessProber::Config prober_cfg{cfg_.hello_miss_threshold, cfg_.hello_up_threshold};
  for (auto& spec : neighbors) {
    NeighborLink nl;
    nl.spec = spec;
    assert(!spec.channels.empty());
    for (const Channel& ch : spec.channels) {
      nl.channels.push_back(ChannelState{ch, LivenessProber{prober_cfg}, 1, {}, {},
                                         sim::Duration::milliseconds(10)});
    }
    nl.ctx = std::make_unique<NodeLinkContext>(*this, spec.link);
    links_.push_back(std::move(nl));
  }
  topo_db_.set_loss_aware(cfg_.loss_aware_routing);
  if (cfg_.authenticate) {
    keys_ = std::make_unique<crypto::KeyTable>(
        cfg_.master_key, id_,
        static_cast<std::uint32_t>(topo_db_.base_graph().num_nodes()));
  }
  internet_.bind(host_, cfg_.daemon_port,
                 [this](const net::Datagram& d) { on_datagram(d); });
  obs_failovers_ = obs::counter("overlay.link.failovers");
  obs_no_route_ = obs::counter("overlay.route.no_route");
  obs_ttl_expired_ = obs::counter("overlay.route.ttl_expired");
  obs_dedup_dropped_ = obs::counter("overlay.dedup.dropped");
  obs_compromised_dropped_ = obs::counter("overlay.route.compromised_dropped");
  obs_protocol_drops_ = obs::counter("overlay.link.protocol_drops");
  obs_origin_evictions_ = obs::counter("overlay.membership.origin_evictions");
  obs_cache_evictions_ = obs::counter("overlay.membership.cache_evictions");
}

OverlayNode::~OverlayNode() {
  sim_.cancel(hello_timer_);
  sim_.cancel(refresh_timer_);
  for (const auto id : flood_timers_) sim_.cancel(id);
}

void OverlayNode::start() {
  if (started_) return;
  started_ = true;
  refresh_link_ad(/*force_flood=*/true);
  refresh_group_ad();
  // Deterministic per-node jitter de-synchronizes hello ticks across nodes.
  const auto jitter = sim::Duration::from_millis_f(
      rng_.uniform() * cfg_.hello_interval.to_millis_f());
  hello_timer_ = sim_.schedule(jitter, [this]() { hello_tick(); });
  refresh_timer_ = sim_.schedule(cfg_.state_refresh + jitter, [this]() {
    state_refresh_tick();
  });
}

// ---- Session level -------------------------------------------------------------

ClientEndpoint& OverlayNode::connect(VirtualPort port) {
  auto it = clients_.find(port);
  if (it == clients_.end()) {
    it = clients_.emplace(port, std::unique_ptr<ClientEndpoint>(new ClientEndpoint(*this, port)))
             .first;
  }
  return *it->second;
}

NodeId ClientEndpoint::node() const { return node_.id(); }

bool ClientEndpoint::send(const Destination& dest, Payload payload, const ServiceSpec& spec) {
  return node_.client_send(*this, dest, std::move(payload), spec, node_.sim_.now());
}

bool ClientEndpoint::send_with_origin(const Destination& dest, Payload payload,
                                      const ServiceSpec& spec, sim::TimePoint origin_time) {
  return node_.client_send(*this, dest, std::move(payload), spec, origin_time);
}

bool ClientEndpoint::send_flow(const Destination& dest, Payload payload, const ServiceSpec& spec,
                               std::uint32_t flow_tag, std::uint64_t flow_seq) {
  // Tagged flow identity: fold the engine's per-flow tag into the ordinary
  // (origin, port, dest) key so concurrent flows through one endpoint get
  // distinct keys without any per-flow endpoint state. The 0xF10E salt keeps
  // tagged keys out of the untagged keyspace.
  const std::uint64_t key = hash_mix(flow_key_of(node_.id(), port_, dest) ^
                                     (0xF10EULL << 48) ^ flow_tag);
  // The tag doubles as the fairness identity: the IT fair scheduler keys
  // per-source storage and round-robin on (origin, source_tag), so 100k
  // engine flows from distinct tags do not collapse into one source.
  return node_.client_send_impl(*this, dest, std::move(payload), spec, node_.sim_.now(), key,
                                flow_seq, flow_tag);
}

void ClientEndpoint::join(GroupId g) {
  if (std::find(joined_.begin(), joined_.end(), g) == joined_.end()) {
    joined_.push_back(g);
    node_.refresh_group_ad();
  }
}

void ClientEndpoint::leave(GroupId g) {
  const auto it = std::find(joined_.begin(), joined_.end(), g);
  if (it != joined_.end()) {
    joined_.erase(it);
    node_.refresh_group_ad();
  }
}

void OverlayNode::refresh_group_ad() {
  GroupStateAd ad;
  ad.origin = id_;
  ad.seq = ++own_group_seq_;
  ad.incarnation = incarnation_;
  for (const auto& [port, client] : clients_) {
    for (const GroupId g : client->joined_) {
      if (std::find(ad.joined.begin(), ad.joined.end(), g) == ad.joined.end()) {
        ad.joined.push_back(g);
      }
    }
  }
  group_db_.apply(ad);
  if (started_) flood_control(FrameType::kGroupState, ad, kInvalidLinkBit);
}

bool OverlayNode::client_send(ClientEndpoint& client, const Destination& dest, Payload payload,
                              const ServiceSpec& spec, sim::TimePoint origin_time) {
  const std::uint64_t flow_key = flow_key_of(id_, client.port_, dest);
  const std::uint64_t flow_seq = ++client.flow_seq_[flow_key];
  return client_send_impl(client, dest, std::move(payload), spec, origin_time, flow_key,
                          flow_seq, /*source_tag=*/0);
}

bool OverlayNode::client_send_impl(ClientEndpoint& client, const Destination& dest,
                                   Payload payload, const ServiceSpec& spec,
                                   sim::TimePoint origin_time, std::uint64_t flow_key,
                                   std::uint64_t flow_seq, std::uint32_t source_tag) {
  Message msg;
  msg.hdr.origin = id_;
  msg.hdr.src_port = client.port_;
  msg.hdr.dest = dest;
  msg.hdr.flow_key = flow_key;
  msg.hdr.flow_seq = flow_seq;
  msg.hdr.source_tag = source_tag;
  msg.hdr.origin_id = make_origin_id();
  msg.hdr.scheme = spec.scheme;
  msg.hdr.link_protocol = spec.link_protocol;
  msg.hdr.origin_time = origin_time;
  msg.hdr.deadline = spec.deadline;
  msg.hdr.priority = spec.priority;
  msg.hdr.nm_requests = spec.nm_requests;
  msg.hdr.nm_retransmissions = spec.nm_retransmissions;
  msg.hdr.ordered = spec.ordered;
  msg.payload = std::move(payload);

  // Resolve anycast at the origin: pick the nearest member node.
  if (dest.kind == Destination::Kind::kAnycast) {
    const NodeId target = router_.anycast_target(dest.group);
    if (target == kInvalidNode) {
      ++stats_.no_route;
      return false;
    }
    msg.hdr.dest.node = target;
  }

  // Source-based schemes: stamp the link bitmask once, at the origin.
  if (spec.scheme != RouteScheme::kLinkState) {
    if (spec.custom_mask != 0) {
      msg.hdr.mask = spec.custom_mask;
    } else {
      NodeId mask_dst = msg.hdr.dest.node;
      if (dest.kind == Destination::Kind::kMulticast) {
        // Only flooding supports point-to-multipoint source-based routing
        // (or an explicit custom_mask subgraph).
        if (spec.scheme != RouteScheme::kFlooding) {
          ++stats_.no_route;
          return false;
        }
        mask_dst = id_;  // irrelevant for flooding
      }
      msg.hdr.mask = router_.source_mask(spec, mask_dst);
      if (msg.hdr.mask == 0 && spec.scheme != RouteScheme::kFlooding) {
        ++stats_.no_route;
        return false;
      }
    }
  }

  ++stats_.originated;
  SON_OBS_PATH(msg.hdr.origin_id, id_, obs::HopKind::kOrigin,
               obs::pack3(0xFF, static_cast<std::uint8_t>(msg.hdr.link_protocol), 0));
  const bool admitted = route_message(std::move(msg), kInvalidLinkBit);
  if (!admitted) ++stats_.send_blocked;
  return admitted;
}

void OverlayNode::deliver_to_session(const Message& msg) {
  SON_OBS_PATH(msg.hdr.origin_id, id_, obs::HopKind::kDeliver,
               obs::pack3(0xFF, static_cast<std::uint8_t>(msg.hdr.link_protocol), 0));
  if (msg.hdr.ordered) {
    auto it = reorder_.find(msg.hdr.flow_key);
    if (it == reorder_.end()) {
      const sim::Duration hold = msg.hdr.deadline > sim::Duration::zero()
                                     ? msg.hdr.deadline
                                     : cfg_.reorder_hold;
      it = reorder_
               .emplace(msg.hdr.flow_key,
                        std::make_unique<ReorderBuffer>(
                            sim_, hold, [this](const Message& m) { deliver_to_client(m); }))
               .first;
    }
    it->second->push(msg);
  } else {
    deliver_to_client(msg);
  }
}

void OverlayNode::deliver_to_client(const Message& msg) {
  const sim::Duration latency = sim_.now() - msg.hdr.origin_time;
  ++stats_.delivered_local;

  // Flow-based accounting (§II-C): per-flow state at the terminating node.
  // Optional because the map grows with distinct flow keys — at 1M+ tagged
  // flows it would dominate node memory (cfg_.session_flow_accounting).
  if (cfg_.session_flow_accounting) {
    FlowStats& fs = flow_stats_[msg.hdr.flow_key];
    if (fs.delivered == 0) {
      fs.origin = msg.hdr.origin;
      fs.src_port = msg.hdr.src_port;
      fs.dest = msg.hdr.dest;
      fs.link_protocol = msg.hdr.link_protocol;
      fs.scheme = msg.hdr.scheme;
      fs.ewma_latency = latency;
    }
    ++fs.delivered;
    fs.bytes += msg.payload_size();
    if (msg.hdr.flow_seq > fs.highest_seq + 1 && fs.delivered > 1) ++fs.gaps;
    fs.highest_seq = std::max(fs.highest_seq, msg.hdr.flow_seq);
    fs.ewma_latency = fs.ewma_latency * 0.875 + latency * 0.125;
    fs.max_latency = std::max(fs.max_latency, latency);
    fs.last_delivery = sim_.now();
  }
  switch (msg.hdr.dest.kind) {
    case Destination::Kind::kUnicast: {
      const auto it = clients_.find(msg.hdr.dest.port);
      if (it != clients_.end() && it->second->handler_) {
        it->second->handler_(msg, latency);
      }
      break;
    }
    case Destination::Kind::kMulticast: {
      for (const auto& [port, client] : clients_) {
        if (std::find(client->joined_.begin(), client->joined_.end(), msg.hdr.dest.group) !=
                client->joined_.end() &&
            client->handler_) {
          client->handler_(msg, latency);
        }
      }
      break;
    }
    case Destination::Kind::kAnycast: {
      // "Anycast messages are delivered to exactly one member of the
      // relevant group" — one client, even if several joined on this node.
      for (const auto& [port, client] : clients_) {
        if (std::find(client->joined_.begin(), client->joined_.end(), msg.hdr.dest.group) !=
                client->joined_.end() &&
            client->handler_) {
          client->handler_(msg, latency);
          break;
        }
      }
      break;
    }
  }
}

// ---- Routing level ---------------------------------------------------------------

bool OverlayNode::route_message(Message msg, LinkBit arrived_on) {
  return route_message_impl(std::move(msg), arrived_on, /*skip_compromise=*/false);
}

bool OverlayNode::route_message_impl(Message msg, LinkBit arrived_on, bool skip_compromise) {
  const bool transit = arrived_on != kInvalidLinkBit;

  // Overlay TTL: transient link-state disagreement during convergence can
  // briefly loop a packet; bound the damage. 32 hops is far beyond any
  // legitimate path in a "few tens of nodes" overlay.
  if (transit) {
    if (msg.hdr.hops >= 32) {
      ++stats_.ttl_expired;
      obs_ttl_expired_.add();
      SON_OBS(id_, obs::Category::kRoute, obs::RouteEvent::kTtlExpired, msg.hdr.origin_id, 0);
      SON_OBS_PATH(msg.hdr.origin_id, id_, obs::HopKind::kDropTtl, obs::pack3(arrived_on, 0, 0));
      return true;
    }
    ++msg.hdr.hops;
  }

  // Compromised behaviour: disrupt transit data (control traffic and local
  // origination continue normally — the stealthy worst case).
  if (transit && compromise_.active && !skip_compromise) {
    const bool targeted = compromise_.target_origin == 0xFFFF ||
                          compromise_.target_origin == msg.hdr.origin;
    if (targeted) {
      if (compromise_.blackhole_transit ||
          (compromise_.drop_probability > 0 && rng_.bernoulli(compromise_.drop_probability))) {
        ++stats_.compromised_dropped;
        obs_compromised_dropped_.add();
        SON_OBS_PATH(msg.hdr.origin_id, id_, obs::HopKind::kDropCompromised,
                     obs::pack3(arrived_on, 0, 0));
        return true;  // silently swallowed
      }
      if (compromise_.added_delay > sim::Duration::zero()) {
        sim_.schedule(
            compromise_.added_delay,
            timer_guard_.wrap([this, msg = std::move(msg), arrived_on]() {
              route_message_impl(msg, arrived_on, /*skip_compromise=*/true);
            }));
        return true;
      }
    }
  }

  switch (msg.hdr.scheme) {
    case RouteScheme::kLinkState: {
      if (msg.hdr.dest.kind == Destination::Kind::kMulticast) {
        if (group_db_.is_member(id_, msg.hdr.dest.group)) deliver_to_session(msg);
        bool all_ok = true;
        for (const LinkBit b :
             router_.multicast_links(msg.hdr.origin, msg.hdr.dest.group, arrived_on)) {
          all_ok = forward_on(b, msg) && all_ok;
        }
        return all_ok;
      }
      // Unicast / resolved anycast.
      if (msg.hdr.dest.node == id_) {
        deliver_to_session(msg);
        return true;
      }
      const LinkBit nh = router_.next_hop(msg.hdr.dest.node);
      if (nh == kInvalidLinkBit) {
        ++stats_.no_route;
        obs_no_route_.add();
        SON_OBS(id_, obs::Category::kRoute, obs::RouteEvent::kNoRoute, msg.hdr.dest.node, 0);
        SON_OBS_PATH(msg.hdr.origin_id, id_, obs::HopKind::kDropNoRoute,
                     obs::pack3(arrived_on, 0, 0));
        return true;  // accepted but undeliverable right now
      }
      return forward_on(nh, msg);
    }

    case RouteScheme::kDisjointPaths:
    case RouteScheme::kDissemination:
    case RouteScheme::kFlooding: {
      if (dedup_.seen_or_insert(msg.hdr.origin_id)) {
        ++stats_.dedup_dropped;
        obs_dedup_dropped_.add();
        SON_OBS_PATH(msg.hdr.origin_id, id_, obs::HopKind::kDropDedup,
                     obs::pack3(arrived_on, 0, 0));
        return true;
      }
      const bool for_me =
          (msg.hdr.dest.kind == Destination::Kind::kUnicast && msg.hdr.dest.node == id_) ||
          (msg.hdr.dest.kind == Destination::Kind::kAnycast && msg.hdr.dest.node == id_) ||
          (msg.hdr.dest.kind == Destination::Kind::kMulticast &&
           group_db_.is_member(id_, msg.hdr.dest.group));
      if (for_me) deliver_to_session(msg);
      for (const LinkBit b : router_.adjacent_mask_links(msg.hdr.mask, arrived_on)) {
        forward_on(b, msg);
      }
      return true;
    }
  }
  return true;
}

bool OverlayNode::forward_on(LinkBit link, const Message& msg) {
  NeighborLink* nl = link_by_bit(link);
  if (nl == nullptr) return false;
  ++stats_.forwarded;
  SON_OBS_PATH(msg.hdr.origin_id, id_, obs::HopKind::kForward,
               obs::pack3(link, static_cast<std::uint8_t>(msg.hdr.link_protocol), 0));
  return endpoint(*nl, msg.hdr.link_protocol).send(msg);
}

// ---- Link level / underlay ----------------------------------------------------------

OverlayNode::NeighborLink* OverlayNode::link_by_bit(LinkBit b) {
  for (auto& nl : links_) {
    if (nl.spec.link == b) return &nl;
  }
  return nullptr;
}

LinkProtocolEndpoint& OverlayNode::endpoint(NeighborLink& nl, LinkProtocol proto) {
  auto it = nl.endpoints.find(proto);
  if (it == nl.endpoints.end()) {
    it = nl.endpoints.emplace(proto, make_link_endpoint(proto, *nl.ctx, cfg_.link_protocols))
             .first;
  }
  return *it->second;
}

bool OverlayNode::is_control_frame(FrameType t) {
  return t == FrameType::kHello || t == FrameType::kHelloReply || t == FrameType::kLsa ||
         t == FrameType::kGroupState;
}

void OverlayNode::send_frame_on_link(NeighborLink& nl, LinkFrame f) {
  if (crashed_) return;  // and says nothing
  f.incarnation = incarnation_;
  // Intrusion-tolerant deployments authenticate the control plane hop-by-hop
  // so outsiders cannot inject hellos or forge topology/membership state.
  if (cfg_.authenticate && keys_ != nullptr && is_control_frame(f.type)) {
    std::array<std::uint8_t, kControlAuthHeadBytes> head;
    const std::size_t n = control_auth_head_bytes(f, std::span{head});
    if (!nl.mac.valid()) nl.mac = keys_->context(nl.spec.peer);
    f.auth = nl.mac.sign(std::span<const std::uint8_t>{head.data(), n},
                         control_suffix_for_sign(f));
    f.authenticated = true;
  }
  // Channel selection: hellos pin their channel; everything else uses the
  // current best (active) channel.
  std::size_t ch_idx = static_cast<std::size_t>(nl.active_channel);
  if (f.type == FrameType::kHello || f.type == FrameType::kHelloReply) {
    ch_idx = std::min<std::size_t>(f.channel, nl.channels.size() - 1);
  }
  const Channel attach = nl.channels[ch_idx].attach;

  net::Datagram d;
  d.src = host_;
  d.dst = nl.spec.peer_host;
  d.src_port = cfg_.daemon_port;
  d.dst_port = cfg_.daemon_port;
  d.size_bytes = frame_wire_size(f);
  d.payload = std::move(f);
  ++stats_.frames_sent;

  // The user-level stack traversal cost (§II-D): well under 1 ms per node.
  sim_.schedule(cfg_.processing_delay,
                timer_guard_.wrap([this, d = std::move(d), attach]() mutable {
                  net::Internet::SendOptions opts;
                  opts.src_attach = attach.local;
                  opts.dst_attach = attach.remote;
                  internet_.send(std::move(d), opts);
                }));
}

void OverlayNode::set_crashed(bool crashed) { crashed_ = crashed; }

void OverlayNode::restart() {
  ++incarnation_;
  crashed_ = false;
  // Volatile per-message state restarts at its initial values; the bumped
  // incarnation (in origin ids, frames and advertisements) is what keeps the
  // new life's identifiers disjoint from the old one's.
  next_origin_counter_ = 1;
  own_lsa_seq_ = 0;
  own_group_seq_ = 0;
  dedup_ = DedupCache{};
  reorder_.clear();
  flow_stats_.clear();
  sign_suffix_valid_ = false;
  const LivenessProber::Config prober_cfg{cfg_.hello_miss_threshold, cfg_.hello_up_threshold};
  for (auto& nl : links_) {
    nl.endpoints.clear();
    nl.active_channel = 0;
    nl.up = true;
    nl.adv_up = true;
    nl.adv_latency_ms = 0.0;
    nl.adv_loss = 0.0;
    nl.peer_incarnation = 0;  // relearned from the peer's next frame
    for (ChannelState& ch : nl.channels) {
      ch.prober = LivenessProber{prober_cfg};
      ch.next_hello_seq = 1;
      ch.outstanding.clear();
      ch.window.clear();
      ch.srtt = sim::Duration::milliseconds(10);
    }
  }
  // Learned remote state was volatile too. Evicting (rather than zeroing)
  // keeps each origin's (incarnation, seq) floor, so stale floods still in
  // flight cannot re-install a previous life's state; live origins re-flood
  // within ~state_refresh and repopulate everything.
  const auto n = static_cast<NodeId>(topo_db_.base_graph().num_nodes());
  for (NodeId o = 0; o < n; ++o) {
    if (o == id_) continue;
    topo_db_.evict_origin(o);
    group_db_.evict_origin(o);
    router_.evict_origin(o);
  }
  membership_ = MembershipDb{topo_db_.base_graph().num_nodes()};
  if (started_) {
    // Rejoin: advertise own state immediately under the new incarnation.
    refresh_link_ad(/*force_flood=*/true);
    refresh_group_ad();
  }
}

bool OverlayNode::admit_peer_incarnation(NeighborLink& nl, const LinkFrame& f) {
  membership_.heard_from(f.from, f.incarnation, sim_.now());
  if (f.incarnation < nl.peer_incarnation) {
    ++stats_.stale_incarnation_drops;
    return false;  // a pre-crash ghost still in flight
  }
  if (f.incarnation > nl.peer_incarnation) {
    nl.peer_incarnation = f.incarnation;
    ++stats_.peer_restarts_seen;
    // The peer restarted: its senders are at seq 1 again and its receivers
    // have empty windows, so every per-link protocol endpoint for this
    // neighbor is reset (both roles live in the same endpoint objects).
    nl.endpoints.clear();
    if (tracer_.enabled(sim::TraceLevel::kInfo)) {
      trace(sim::TraceLevel::kInfo,
            "peer " + std::to_string(nl.spec.peer) + " restarted (incarnation " +
                std::to_string(f.incarnation) + "); link state reset");
    }
  }
  return true;
}

void OverlayNode::sweep_departed_origins() {
  if (cfg_.dead_origin_timeout <= sim::Duration::zero()) return;
  const sim::TimePoint now = sim_.now();
  // Startup grace: nothing can be "silent for the timeout" before one
  // timeout has elapsed since t=0.
  if (now < sim::TimePoint::zero() + cfg_.dead_origin_timeout) return;
  departed_scratch_.clear();
  membership_.sweep(now - cfg_.dead_origin_timeout, departed_scratch_);
  for (const NodeId origin : departed_scratch_) {
    if (origin == id_) continue;
    topo_db_.evict_origin(origin);
    group_db_.evict_origin(origin);
    const std::size_t cache_entries = router_.evict_origin(origin);
    ++stats_.origin_evictions;
    obs_origin_evictions_.add();
    if (cache_entries > 0) obs_cache_evictions_.add(cache_entries);
    if (tracer_.enabled(sim::TraceLevel::kInfo)) {
      trace(sim::TraceLevel::kInfo,
            "origin " + std::to_string(origin) + " departed; state evicted");
    }
  }
}

void OverlayNode::on_datagram(const net::Datagram& d) {
  if (crashed_) return;  // a crashed node hears nothing
  const auto* f = d.payload.get<LinkFrame>();
  if (f == nullptr) return;
  ++stats_.frames_received;
  on_frame(*f);
}

void OverlayNode::on_frame(LinkFrame f) {
  if (cfg_.authenticate && keys_ != nullptr && is_control_frame(f.type)) {
    bool ok = f.authenticated && f.from < keys_->size();
    if (ok) {
      // Re-serialize the claimed content into this node's own scratch (never
      // trust, and never cache, bytes keyed by a sender-chosen id).
      std::array<std::uint8_t, kControlAuthHeadBytes> head;
      const std::size_t n = control_auth_head_bytes(f, std::span{head});
      control_auth_suffix_into(f, verify_suffix_scratch_);
      ok = keys_->verify(f.from, std::span<const std::uint8_t>{head.data(), n},
                         std::span<const std::uint8_t>{verify_suffix_scratch_}, f.auth);
    }
    if (!ok) {
      ++stats_.control_auth_failures;
      return;
    }
  }
  // Incarnation discipline runs after authentication (a forged frame must
  // not reset link state) and before any handler: ghosts from a neighbor's
  // previous life are dropped, and a bumped incarnation resets the link.
  if (NeighborLink* nl = link_by_bit(f.link);
      nl != nullptr && f.from == nl->spec.peer && !admit_peer_incarnation(*nl, f)) {
    return;
  }
  switch (f.type) {
    case FrameType::kHello:
      handle_hello(f);
      return;
    case FrameType::kHelloReply:
      handle_hello_reply(f);
      return;
    case FrameType::kLsa:
      handle_lsa(f);
      return;
    case FrameType::kGroupState:
      handle_group_state(f);
      return;
    default:
      break;
  }
  NeighborLink* nl = link_by_bit(f.link);
  if (nl == nullptr || f.from != nl->spec.peer) return;  // not one of our links
  endpoint(*nl, f.proto).on_frame(f);
}

// ---- Hello protocol & link health --------------------------------------------------

void OverlayNode::hello_tick() {
  for (auto& nl : links_) {
    for (std::size_t c = 0; c < nl.channels.size(); ++c) {
      ChannelState& ch = nl.channels[c];
      // Expire unanswered hellos. The timeout must exceed any overlay link's
      // RTT (a 50 ms link has a ~100 ms RTT; expiring after one interval
      // would count every reply as lost), so we allow miss_threshold
      // intervals before declaring a probe lost.
      const sim::TimePoint now = sim_.now();
      const sim::Duration hello_timeout =
          cfg_.hello_interval * static_cast<std::int64_t>(cfg_.hello_miss_threshold);
      for (auto it = ch.outstanding.begin(); it != ch.outstanding.end();) {
        if (now - it->second >= hello_timeout) {
          ch.window.push_back(false);
          if (ch.window.size() > cfg_.hello_window) ch.window.pop_front();
          ch.prober.on_miss();
          it = ch.outstanding.erase(it);
        } else {
          ++it;
        }
      }
      send_hello(nl, c);
    }
    evaluate_link(nl);
  }
  refresh_link_ad(/*force_flood=*/false);
  hello_timer_ = sim_.schedule(cfg_.hello_interval, [this]() { hello_tick(); });
}

void OverlayNode::send_hello(NeighborLink& nl, std::size_t channel_idx) {
  ChannelState& ch = nl.channels[channel_idx];
  LinkFrame f;
  f.link = nl.spec.link;
  f.from = id_;
  f.to = nl.spec.peer;
  f.type = FrameType::kHello;
  f.hello_seq = ch.next_hello_seq++;
  f.t_sent = sim_.now();
  f.channel = static_cast<std::uint8_t>(channel_idx);
  ch.outstanding.emplace(f.hello_seq, sim_.now());
  send_frame_on_link(nl, std::move(f));
}

void OverlayNode::handle_hello(const LinkFrame& f) {
  NeighborLink* nl = link_by_bit(f.link);
  if (nl == nullptr || f.from != nl->spec.peer) return;
  LinkFrame reply;
  reply.link = f.link;
  reply.from = id_;
  reply.to = f.from;
  reply.type = FrameType::kHelloReply;
  reply.hello_seq = f.hello_seq;
  reply.t_sent = f.t_sent;  // echo for RTT measurement
  reply.channel = f.channel;
  send_frame_on_link(*nl, std::move(reply));
}

void OverlayNode::handle_hello_reply(const LinkFrame& f) {
  NeighborLink* nl = link_by_bit(f.link);
  if (nl == nullptr || f.from != nl->spec.peer) return;
  if (f.channel >= nl->channels.size()) return;
  ChannelState& ch = nl->channels[f.channel];
  const auto it = ch.outstanding.find(f.hello_seq);
  if (it == ch.outstanding.end()) return;  // late reply past expiry
  ch.outstanding.erase(it);

  const sim::Duration rtt = sim_.now() - f.t_sent;
  ch.srtt = ch.srtt * 0.875 + rtt * 0.125;
  ch.window.push_back(true);
  if (ch.window.size() > cfg_.hello_window) ch.window.pop_front();
  if (ch.prober.on_success()) {
    evaluate_link(*nl);
    refresh_link_ad(/*force_flood=*/false);
  }
}

double OverlayNode::channel_loss(const ChannelState& ch) const {
  if (ch.window.empty()) return 0.0;
  const auto lost = static_cast<double>(
      std::count(ch.window.begin(), ch.window.end(), false));
  return lost / static_cast<double>(ch.window.size());
}

void OverlayNode::evaluate_link(NeighborLink& nl) {
  int best = -1;
  double best_score = 1e18;
  for (std::size_t c = 0; c < nl.channels.size(); ++c) {
    const ChannelState& ch = nl.channels[c];
    if (!ch.prober.up()) continue;
    // Loss dominates (bucketed so jitter does not flap channels); RTT breaks
    // ties.
    const double score = std::round(channel_loss(ch) * 50.0) * 1e6 + ch.srtt.to_millis_f();
    if (score < best_score) {
      best_score = score;
      best = static_cast<int>(c);
    }
  }
  if (best != -1 && best != nl.active_channel) {
    ++stats_.link_failovers;
    obs_failovers_.add();
    SON_OBS(id_, obs::Category::kLink, obs::LinkEvent::kFailover, nl.spec.link,
            static_cast<std::uint64_t>(best));
    if (tracer_.enabled(sim::TraceLevel::kInfo)) {
      trace(sim::TraceLevel::kInfo,
            "link " + std::to_string(nl.spec.link) + " failover to channel " +
                std::to_string(best));
    }
  }
  if (best != -1) nl.active_channel = best;
  nl.up = best != -1;
}

// ---- State flooding -------------------------------------------------------------------

void OverlayNode::refresh_link_ad(bool force_flood) {
  if (!started_ && !force_flood) return;
  // Detect change vs. what we last advertised.
  bool changed = false;
  for (auto& nl : links_) {
    const ChannelState& ch = nl.channels[static_cast<std::size_t>(nl.active_channel)];
    const double lat = ch.srtt.to_millis_f() / 2.0;
    const double loss = channel_loss(ch);
    if (nl.up != nl.adv_up ||
        std::abs(lat - nl.adv_latency_ms) >
            cfg_.lsa_latency_rel_change * std::max(nl.adv_latency_ms, 0.1) ||
        std::abs(loss - nl.adv_loss) > cfg_.lsa_loss_abs_change) {
      changed = true;
    }
  }
  if (!changed && !force_flood) return;

  LinkStateAd ad;
  ad.origin = id_;
  ad.seq = ++own_lsa_seq_;
  ad.incarnation = incarnation_;
  for (auto& nl : links_) {
    const ChannelState& ch = nl.channels[static_cast<std::size_t>(nl.active_channel)];
    LinkReport r;
    r.link = nl.spec.link;
    r.up = nl.up;
    r.latency_ms = ch.srtt.to_millis_f() / 2.0;
    r.loss_rate = channel_loss(ch);
    ad.links.push_back(r);
    nl.adv_up = nl.up;
    nl.adv_latency_ms = r.latency_ms;
    nl.adv_loss = r.loss_rate;
  }
  topo_db_.apply(ad);
  flood_control(FrameType::kLsa, ad, kInvalidLinkBit);
}

void OverlayNode::flood_control(FrameType type, std::any control, LinkBit arrived_on) {
  ++stats_.lsa_floods;
  if (flood_timers_.size() > 65536) flood_timers_.clear();  // long fired
  for (auto& nl : links_) {
    if (nl.spec.link == arrived_on) continue;
    for (std::uint32_t copy = 0; copy < cfg_.flood_copies; ++copy) {
      const sim::Duration at = cfg_.flood_spacing * static_cast<std::int64_t>(copy);
      const LinkBit bit = nl.spec.link;
      flood_timers_.push_back(sim_.schedule(at, [this, bit, type, control]() {
        NeighborLink* nl2 = link_by_bit(bit);
        if (nl2 == nullptr) return;
        LinkFrame f;
        f.link = bit;
        f.from = id_;
        f.to = nl2->spec.peer;
        f.type = type;
        f.control = control;
        send_frame_on_link(*nl2, std::move(f));
      }));
    }
  }
}

std::span<const std::uint8_t> OverlayNode::control_suffix_for_sign(const LinkFrame& f) {
  NodeId origin = kInvalidNode;
  std::uint64_t seq = 0;
  std::uint32_t incarnation = 0;
  if (const auto* lsa = std::any_cast<LinkStateAd>(&f.control)) {
    origin = lsa->origin;
    seq = lsa->seq;
    incarnation = lsa->incarnation;
  } else if (const auto* gsa = std::any_cast<GroupStateAd>(&f.control)) {
    origin = gsa->origin;
    seq = gsa->seq;
    incarnation = gsa->incarnation;
  } else {
    return {};  // hellos carry no advertisement body
  }
  // Ad content is immutable per (type, origin, incarnation, seq): origins
  // bump seq on every new advertisement within a life and restart seq in a
  // fresh incarnation, so the triple fully addresses the bytes.
  if (!sign_suffix_valid_ || sign_suffix_type_ != f.type || sign_suffix_origin_ != origin ||
      sign_suffix_seq_ != seq || sign_suffix_incarnation_ != incarnation) {
    control_auth_suffix_into(f, sign_suffix_);
    sign_suffix_type_ = f.type;
    sign_suffix_origin_ = origin;
    sign_suffix_seq_ = seq;
    sign_suffix_incarnation_ = incarnation;
    sign_suffix_valid_ = true;
  }
  return std::span<const std::uint8_t>{sign_suffix_};
}

void OverlayNode::handle_lsa(const LinkFrame& f) {
  const auto* ad = std::any_cast<LinkStateAd>(&f.control);
  if (ad == nullptr) return;
  // Any flood is membership evidence, even a duplicate the db rejects.
  membership_.heard_from(ad->origin, ad->incarnation, sim_.now());
  if (topo_db_.apply(*ad)) {
    flood_control(FrameType::kLsa, f.control, f.link);
  }
}

void OverlayNode::handle_group_state(const LinkFrame& f) {
  const auto* ad = std::any_cast<GroupStateAd>(&f.control);
  if (ad == nullptr) return;
  membership_.heard_from(ad->origin, ad->incarnation, sim_.now());
  if (group_db_.apply(*ad)) {
    flood_control(FrameType::kGroupState, f.control, f.link);
  }
}

void OverlayNode::state_refresh_tick() {
  membership_.heard_from(id_, incarnation_, sim_.now());  // we are our own evidence
  sweep_departed_origins();
  refresh_link_ad(/*force_flood=*/true);
  refresh_group_ad();
  refresh_timer_ = sim_.schedule(cfg_.state_refresh, [this]() { state_refresh_tick(); });
}

// ---- Introspection -------------------------------------------------------------------

LinkProtocolEndpoint* OverlayNode::find_endpoint(LinkBit b, LinkProtocol proto) {
  NeighborLink* nl = link_by_bit(b);
  if (nl == nullptr) return nullptr;
  const auto it = nl->endpoints.find(proto);
  return it == nl->endpoints.end() ? nullptr : it->second.get();
}

std::vector<LinkBit> OverlayNode::link_bits() const {
  std::vector<LinkBit> bits;
  bits.reserve(links_.size());
  for (const auto& nl : links_) bits.push_back(nl.spec.link);
  return bits;
}

OverlayNode::LinkHealth OverlayNode::link_health(LinkBit b) const {
  LinkHealth h;
  for (const auto& nl : links_) {
    if (nl.spec.link != b) continue;
    h.up = nl.up;
    h.active_channel = nl.active_channel;
    const auto& ch = nl.channels[static_cast<std::size_t>(nl.active_channel)];
    h.loss_estimate = channel_loss(ch);
    h.srtt = ch.srtt;
    break;
  }
  return h;
}

crypto::Tag OverlayNode::bench_make_arrival_tag(const Message& msg, LinkBit arrived_on) const {
  if (keys_ == nullptr) return {};
  const auto* nl = const_cast<OverlayNode*>(this)->link_by_bit(arrived_on);
  if (nl == nullptr) return {};
  const auto bytes = auth_bytes(msg);
  return keys_->sign(nl->spec.peer, std::span<const std::uint8_t>{bytes});
}

OverlayNode::ForwardAuthResult OverlayNode::bench_forward_lookup(const Message& msg,
                                                                 LinkBit arrived_on,
                                                                 const crypto::Tag* in_auth) {
  // The per-message forwarding work of an intermediate node: routing lookup
  // (+ dedup for source-based schemes) and, in IT mode, HMAC verify+re-sign.
  ForwardAuthResult res;
  if (msg.hdr.scheme == RouteScheme::kLinkState) {
    res.egress = router_.next_hop(msg.hdr.dest.node);
  } else {
    volatile bool dup = dedup_.seen_or_insert(msg.hdr.origin_id);
    (void)dup;
    const auto& links = router_.adjacent_mask_links(msg.hdr.mask, arrived_on);
    if (!links.empty()) res.egress = links.front();
  }
  if (!cfg_.authenticate || keys_ == nullptr || links_.empty()) return res;

  // Verify is keyed to the INGRESS link's peer (who signed the arriving
  // frame); the re-sign to the EGRESS link's peer (who will verify it next).
  // These are distinct pairwise keys on any real transit hop.
  NeighborLink* in_nl = link_by_bit(arrived_on);
  if (in_nl == nullptr) in_nl = &links_.front();
  NeighborLink* out_nl = link_by_bit(res.egress);
  if (out_nl == nullptr || out_nl == in_nl) {
    out_nl = in_nl;
    for (auto& nl : links_) {
      if (&nl != in_nl) {
        out_nl = &nl;
        break;
      }
    }
  }

  std::array<std::uint8_t, kAuthHeadBytes> head;
  const std::size_t n = auth_head_bytes(msg, std::span{head});
  const std::span<const std::uint8_t> head_sp{head.data(), n};
  const std::span<const std::uint8_t> body =
      msg.payload ? std::span<const std::uint8_t>{msg.payload->data(), msg.payload->size()}
                  : std::span<const std::uint8_t>{};
  if (!in_nl->mac.valid()) in_nl->mac = keys_->context(in_nl->spec.peer);
  if (!out_nl->mac.valid()) out_nl->mac = keys_->context(out_nl->spec.peer);
  res.verified = in_auth == nullptr || in_nl->mac.verify(head_sp, body, *in_auth);
  res.resigned = out_nl->mac.sign(head_sp, body);
  return res;
}

}  // namespace son::overlay
