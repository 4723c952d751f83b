// Best-Effort and Reliable Data Link protocols.
//
// Reliable Data Link (§III-A, [4]): hop-by-hop ARQ on each overlay link.
// "By adding automatic repeat request (ARQ) mechanisms to each overlay link,
// the overlay can localize and recover losses much faster and with lower
// overhead than an end-to-end approach. To provide smoother packet delivery,
// intermediate nodes are permitted to forward packets out of order; the
// final destination is responsible for buffering received packets until
// they can be delivered in order."
#pragma once

#include <deque>
#include <map>
#include <set>

#include "obs/counters.hpp"
#include "overlay/link_protocols.hpp"
#include "overlay/seq_window.hpp"

namespace son::overlay {

class BestEffortEndpoint final : public LinkProtocolEndpoint {
 public:
  using LinkProtocolEndpoint::LinkProtocolEndpoint;

  bool send(Message msg) override;
  void on_frame(const LinkFrame& f) override;
  [[nodiscard]] LinkProtocol protocol() const override { return LinkProtocol::kBestEffort; }
};

class ReliableLinkEndpoint final : public LinkProtocolEndpoint {
 public:
  using LinkProtocolEndpoint::LinkProtocolEndpoint;

  bool send(Message msg) override;
  void on_frame(const LinkFrame& f) override;
  [[nodiscard]] LinkProtocol protocol() const override { return LinkProtocol::kReliable; }

  struct Stats {
    std::uint64_t data_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicates_received = 0;
    std::uint64_t delivered_up = 0;
    /// Entries retired by SACK inference: the peer reported them received
    /// out of order, so they stopped being RTO candidates before the
    /// cumulative ack caught up.
    std::uint64_t sacked = 0;
    std::uint64_t nack_batches = 0;  // acks that carried explicit nacks
    std::uint64_t rto_backoffs = 0;  // RTO expiries that doubled an entry's timeout
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // --- Sender role ---
  struct Unacked {
    Message msg;
    sim::TimePoint last_sent;
    std::uint32_t sends = 0;
    /// This entry's current timeout. Starts at rto() on first send and
    /// doubles per expiry up to kMaxRto (exponential backoff).
    sim::Duration rto = sim::Duration::zero();
  };
  void transmit_data(std::uint64_t seq, const Message& msg, bool retrans);
  void arm_retransmit_timer();
  void on_retransmit_timer();
  void handle_ack(const LinkFrame& f);
  [[nodiscard]] sim::Duration rto() const;
  /// Earliest last_sent + rto across unacked_ (must be non-empty).
  [[nodiscard]] sim::TimePoint next_rto_deadline();

  std::uint64_t next_seq_ = 1;
  SeqWindow<Unacked> unacked_;
  sim::EventId retransmit_timer_ = sim::kInvalidEventId;
  /// When the armed retransmit timer fires; lets a new send with an earlier
  /// deadline re-arm instead of waiting behind a backed-off entry.
  sim::TimePoint retransmit_deadline_;

  // --- Receiver role ---
  void handle_data(const LinkFrame& f);
  void schedule_ack();
  void send_ack();

  std::uint64_t recv_cum_ = 0;       // highest in-order seq received
  std::uint64_t recv_max_ = 0;       // highest seq seen at all
  std::set<std::uint64_t> recv_ooo_; // received out-of-order beyond recv_cum_
  /// Held messages when reliable_ooo_forwarding is off (in-order ablation).
  std::map<std::uint64_t, Message> held_;
  sim::EventId ack_timer_ = sim::kInvalidEventId;

  Stats stats_;
  static constexpr obs::Field kCounterFields[] = {
      {"overlay.reliable.retransmissions", offsetof(Stats, retransmissions)},
      {"overlay.reliable.nack_batches", offsetof(Stats, nack_batches)},
      {"overlay.reliable.rto_backoffs", offsetof(Stats, rto_backoffs)}};
  obs::Published published_{&stats_, kCounterFields};
};

}  // namespace son::overlay
