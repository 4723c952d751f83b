// Intrusion-tolerant Priority and Reliable link protocols (§IV-B, [1]).
//
// Both use "fair buffer allocation and round-robin scheduling to ensure that
// a compromised source cannot consume the resources of other sources to
// prevent their messages from being forwarded":
//
//  * Priority messaging "maintains storage per source and treats each active
//    source in a round-robin manner when selecting the next message to
//    forward on a given outgoing link. Sources assign priorities to their
//    messages, and if a node's storage for a particular source fills,
//    additional messages from that source will cause the oldest lowest
//    priority message for that source to be dropped."
//
//  * Reliable messaging "maintains storage per source-destination flow (so a
//    compromised destination cannot block a source) and treats each active
//    flow in a round-robin manner. When a node's storage for a particular
//    flow fills, it stops accepting new messages for that flow, creating
//    backpressure (potentially all the way back to the source)."
//
// In intrusion-tolerant deployments the node tags and checks every frame
// that carries a message (data and retransmissions) with the pairwise key of
// the two link endpoints, at its link boundary; IT-Reliable's kAck and kBusy
// frames carry no tag. The endpoints here only schedule and recover.
#pragma once

#include <deque>
#include <map>

#include "overlay/link_protocols.hpp"
#include "overlay/seq_window.hpp"

namespace son::overlay {

/// Shared machinery: keyed bounded queues + round-robin paced egress.
class ItEndpointBase : public LinkProtocolEndpoint {
 public:
  using LinkProtocolEndpoint::LinkProtocolEndpoint;

  struct Stats {
    std::uint64_t data_sent = 0;
    std::uint64_t admitted = 0;
    std::uint64_t evicted_low_priority = 0;  // priority mode
    std::uint64_t rejected_full = 0;         // reliable mode (backpressured)
    std::uint64_t retransmissions = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  struct Queue {
    std::deque<Message> msgs;
  };

  /// Scheduling key: source node (priority) or flow (reliable).
  [[nodiscard]] virtual std::uint64_t key_of(const Message& m) const = 0;
  /// Admission when the key's queue is full. Returns true if `m` was
  /// admitted (possibly after evicting), false if rejected.
  virtual bool handle_full_queue(Queue& q, Message m) = 0;

  /// Queue `m` for paced round-robin egress to the peer. Returns admission.
  bool enqueue(Message m);
  void arm_pump();
  void pump();  // egress pacer tick
  virtual void transmit(Message m) = 0;
  /// May this key's queue be serviced right now? (IT-Reliable pauses
  /// backpressured flows.)
  [[nodiscard]] virtual bool eligible(std::uint64_t /*key*/) const { return true; }

  [[nodiscard]] sim::Duration pump_interval() const;

  std::map<std::uint64_t, Queue> queues_;
  /// Round-robin position: next service starts strictly after this key.
  std::uint64_t rr_last_key_ = ~std::uint64_t{0};
  sim::EventId pump_timer_ = sim::kInvalidEventId;
  Stats stats_;
};

class ItPriorityEndpoint final : public ItEndpointBase {
 public:
  ItPriorityEndpoint(LinkContext& ctx, const LinkProtocolConfig& cfg)
      : ItEndpointBase(ctx, cfg) {}

  bool send(Message msg) override;
  void on_frame(const LinkFrame& f) override;
  [[nodiscard]] LinkProtocol protocol() const override { return LinkProtocol::kITPriority; }

 private:
  /// Fairness identity is the traffic SOURCE, not just the origin node: an
  /// origin-only key lets one aggressive engine flow monopolize its origin's
  /// round-robin slot and per-source buffer, starving every other flow from
  /// that node. source_tag is 0 for plain sends, so untagged traffic keys to
  /// (origin << 32) and keeps the seed's per-origin behavior.
  std::uint64_t key_of(const Message& m) const override {
    return (std::uint64_t{m.hdr.origin} << 32) | m.hdr.source_tag;
  }
  bool handle_full_queue(Queue& q, Message m) override;
  void transmit(Message m) override;
};

class ItReliableEndpoint final : public ItEndpointBase {
 public:
  ItReliableEndpoint(LinkContext& ctx, const LinkProtocolConfig& cfg)
      : ItEndpointBase(ctx, cfg) {}

  bool send(Message msg) override;
  void on_frame(const LinkFrame& f) override;
  [[nodiscard]] LinkProtocol protocol() const override { return LinkProtocol::kITReliable; }

 private:
  std::uint64_t key_of(const Message& m) const override { return m.hdr.flow_key; }
  bool handle_full_queue(Queue& q, Message m) override;
  void transmit(Message m) override;
  [[nodiscard]] bool eligible(std::uint64_t key) const override;

  void arm_retransmit_timer();
  void on_retransmit_timer();

  // Sender-side reliability: in-flight messages awaiting hop ack.
  struct InFlight {
    Message msg;
    sim::TimePoint last_sent;
  };
  std::uint64_t next_seq_ = 1;
  SeqWindow<InFlight> in_flight_;
  /// Flows the peer reported full; retried after a backoff.
  std::map<std::uint64_t, sim::TimePoint> paused_flows_;
  sim::EventId retransmit_timer_ = sim::kInvalidEventId;

  // Receiver side: seqs admitted above the cumulative floor.
  struct Admitted {};
  RecvWindow<Admitted> recv_;
};

}  // namespace son::overlay
