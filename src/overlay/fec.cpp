#include "overlay/fec.hpp"

#include <algorithm>

namespace son::overlay {

bool FecEndpoint::send(Message msg) {
  const std::uint64_t seq = next_seq_++;

  // Accumulate the group parity before moving the message out.
  group_headers_.push_back(msg.hdr);
  group_sizes_.push_back(static_cast<std::uint32_t>(msg.payload_size()));
  if (msg.payload) {
    if (group_xor_.size() < msg.payload->size()) group_xor_.resize(msg.payload->size(), 0);
    for (std::size_t i = 0; i < msg.payload->size(); ++i) {
      group_xor_[i] = static_cast<std::uint8_t>(group_xor_[i] ^ (*msg.payload)[i]);
    }
  }

  LinkFrame f = frame(FrameType::kData);
  f.seq = seq;
  f.msg = std::move(msg);
  ctx_.send_frame(std::move(f));
  ++stats_.data_sent;

  if (group_headers_.size() >= cfg_.fec_group_size) emit_parity();
  return true;
}

void FecEndpoint::emit_parity() {
  ParityBlock block;
  block.first_seq = group_first_;
  block.headers = std::move(group_headers_);
  block.sizes = std::move(group_sizes_);
  block.xor_bytes = std::move(group_xor_);

  LinkFrame f = frame(FrameType::kParity);
  f.seq = block.first_seq;
  f.control = std::move(block);
  ctx_.send_frame(std::move(f));
  ++stats_.parity_sent;

  group_first_ = next_seq_;
  group_headers_.clear();
  group_sizes_.clear();
  group_xor_.clear();
}

void FecEndpoint::on_frame(const LinkFrame& f) {
  const std::uint64_t k = cfg_.fec_group_size;
  switch (f.type) {
    case FrameType::kData: {
      if (f.seq <= seen_floor_) {
        ++stats_.duplicates;
        return;
      }
      const std::uint64_t group_first = ((f.seq - 1) / k) * k + 1;
      GroupState& g = groups_[group_first];
      if (g.received.contains(f.seq)) {
        ++stats_.duplicates;
        return;
      }
      if (f.msg) {
        g.received.emplace(f.seq, *f.msg);
        ctx_.deliver_up(*f.msg, f.link);
      }
      try_reconstruct(group_first);
      prune_receiver_state();
      break;
    }
    case FrameType::kParity: {
      const auto* block = f.control.get<ParityBlock>();
      if (block == nullptr || block->first_seq <= seen_floor_) return;
      GroupState& g = groups_[block->first_seq];
      if (!g.parity) g.parity = *block;
      try_reconstruct(block->first_seq);
      prune_receiver_state();
      break;
    }
    default:
      break;
  }
}

void FecEndpoint::try_reconstruct(std::uint64_t group_first) {
  const auto it = groups_.find(group_first);
  if (it == groups_.end()) return;
  GroupState& g = it->second;
  if (g.done || !g.parity) return;
  const std::size_t k = g.parity->headers.size();
  if (g.received.size() >= k) {
    g.done = true;
    return;
  }
  if (g.received.size() != k - 1) return;  // 0 or >1 missing: nothing to do yet

  // Exactly one frame missing: find it and XOR it back into existence.
  std::size_t missing_idx = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!g.received.contains(group_first + i)) {
      missing_idx = i;
      break;
    }
  }
  std::vector<std::uint8_t> bytes = g.parity->xor_bytes;
  for (const auto& [seq, msg] : g.received) {
    if (!msg.payload) continue;
    if (bytes.size() < msg.payload->size()) bytes.resize(msg.payload->size(), 0);
    for (std::size_t i = 0; i < msg.payload->size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(bytes[i] ^ (*msg.payload)[i]);
    }
  }
  bytes.resize(g.parity->sizes[missing_idx]);

  Message rebuilt;
  rebuilt.hdr = g.parity->headers[missing_idx];
  rebuilt.payload = make_payload(std::move(bytes));
  g.received.emplace(group_first + missing_idx, rebuilt);
  g.done = true;
  ++stats_.reconstructed;
  ctx_.deliver_up(std::move(rebuilt), ctx_.link());
}

void FecEndpoint::prune_receiver_state() {
  while (groups_.size() > 64) {
    auto& [first, g] = *groups_.begin();
    if (!g.done && g.parity && g.received.size() + 1 < g.parity->headers.size()) {
      ++stats_.unrecoverable_groups;
    }
    seen_floor_ = std::max(seen_floor_, first + cfg_.fec_group_size - 1);
    groups_.erase(groups_.begin());
  }
}

}  // namespace son::overlay
