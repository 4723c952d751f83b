// Real-time recovery link protocols.
//
// RealtimeNM implements the NM-Strikes protocol (§IV-A, Fig. 4, patent [5]):
// on detecting a missing packet, the receiver schedules N retransmission
// requests spaced in time to bypass the window of correlated loss; the
// sender, on the FIRST request for a packet, schedules M retransmissions,
// also spaced. Timers are set so that even the M-th response to the N-th
// request can arrive within the deadline. Expected overhead is 1 + M·p.
//
// RealtimeSimple is the predecessor protocol used for VoIP ([6], [7]):
// exactly one request and one retransmission per missing packet.
#pragma once

#include <vector>

#include "overlay/link_protocols.hpp"
#include "overlay/seq_window.hpp"

namespace son::overlay {

class RealtimeEndpointBase : public LinkProtocolEndpoint {
 public:
  RealtimeEndpointBase(LinkContext& ctx, const LinkProtocolConfig& cfg, bool nm_mode)
      : LinkProtocolEndpoint(ctx, cfg), nm_mode_{nm_mode} {}

  bool send(Message msg) override;
  void on_frame(const LinkFrame& f) override;

  struct Stats {
    std::uint64_t data_sent = 0;
    std::uint64_t requests_sent = 0;
    std::uint64_t retransmissions_sent = 0;
    std::uint64_t recovered = 0;            // missing seqs eventually received
    std::uint64_t expired_unrecovered = 0;  // request schedule exhausted
    std::uint64_t duplicates = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // --- Sender role ---
  struct Sent {
    Message msg;
    sim::TimePoint sent_at;
    /// An M-burst is already scheduled for this seq ("upon receipt of the
    /// first request": later requests for the same packet are ignored).
    bool burst_scheduled = false;
  };
  void prune_history();
  void handle_request(const LinkFrame& f);

  std::uint64_t next_seq_ = 1;
  SeqWindow<Sent> history_;

  // --- Receiver role ---
  /// A stored seq is in recovery while `timers` holds its request and expiry
  /// timer ids, and seen once it is empty; a seq not stored is unknown.
  struct RecvState {
    std::vector<sim::EventId> timers;
    [[nodiscard]] bool seen() const { return timers.empty(); }
    /// Ends the recovery: cancels the timers and marks the seq seen.
    void end(sim::Timers& t) {
      for (const auto id : timers) t.cancel(id);
      timers.clear();
    }
  };
  static constexpr auto kSeen = [](const RecvState& r) { return r.seen(); };
  void handle_data(const LinkFrame& f);
  void note_gap(std::uint64_t missing, const MessageHeader& trigger_hdr);
  void send_request(std::uint64_t missing, sim::Duration responder_budget);
  [[nodiscard]] sim::Duration recovery_budget(const MessageHeader& trigger_hdr) const;

  RecvWindow<RecvState> recv_;  // the floor passes seqs received or expired

  bool nm_mode_;
  Stats stats_;
};

class RealtimeSimpleEndpoint final : public RealtimeEndpointBase {
 public:
  RealtimeSimpleEndpoint(LinkContext& ctx, const LinkProtocolConfig& cfg)
      : RealtimeEndpointBase(ctx, cfg, /*nm_mode=*/false) {}
  [[nodiscard]] LinkProtocol protocol() const override {
    return LinkProtocol::kRealtimeSimple;
  }
};

class RealtimeNMEndpoint final : public RealtimeEndpointBase {
 public:
  RealtimeNMEndpoint(LinkContext& ctx, const LinkProtocolConfig& cfg)
      : RealtimeEndpointBase(ctx, cfg, /*nm_mode=*/true) {}
  [[nodiscard]] LinkProtocol protocol() const override { return LinkProtocol::kRealtimeNM; }
};

}  // namespace son::overlay
