#include "dist/checkpoint.h"

#include <algorithm>

#include "common/logging.h"
#include "types/serde.h"

namespace streampart {

namespace {
constexpr uint8_t kBlobVersion = 1;
}  // namespace

RecoveryCoordinator::RecoveryCoordinator(RecoveryConfig config)
    : config_(config) {
  if (config_.epoch_width == 0) config_.epoch_width = 1;
  section_.active = true;
  section_.checkpoint_interval = config_.checkpoint_interval;
  section_.epoch_width = config_.epoch_width;
}

bool RecoveryCoordinator::AdvanceEpoch(uint64_t eid) {
  if (!started_) {
    started_ = true;
    current_eid_ = eid;
    last_ckpt_eid_ = eid;  // checkpoint baseline
    return true;
  }
  if (eid <= current_eid_) return false;
  current_eid_ = eid;
  return true;
}

bool RecoveryCoordinator::CheckpointDue() const {
  return started_ && config_.checkpoint_interval > 0 &&
         current_eid_ - last_ckpt_eid_ >= config_.checkpoint_interval;
}

void RecoveryCoordinator::BeginCheckpoint() {
  ++section_.checkpoints;
  last_ckpt_eid_ = current_eid_;
}

bool RecoveryCoordinator::ShouldSerialize(int op) const {
  if (blobs_.count(op) == 0) return true;
  auto it = logs_.find(op);
  return it != logs_.end() && it->second.fill != 0;
}

size_t RecoveryCoordinator::StoreBlob(int op, std::string payload,
                                      uint64_t tuples_out) {
  Blob blob;
  blob.envelope.push_back(static_cast<char>(kBlobVersion));
  PutVarint(payload.size(), &blob.envelope);
  blob.payload_offset = blob.envelope.size();
  blob.envelope += payload;
  blob.tuples_out = tuples_out;
  size_t stored = blob.envelope.size();
  blobs_[op] = std::move(blob);
  logs_[op].fill = 0;  // the blob covers every logged delivery
  ++section_.ops_serialized;
  section_.checkpoint_bytes += stored;
  return stored;
}

std::string_view RecoveryCoordinator::BlobPayload(int op) const {
  auto it = blobs_.find(op);
  SP_CHECK(it != blobs_.end()) << "no checkpoint blob for op " << op;
  const Blob& blob = it->second;
  SP_CHECK(!blob.envelope.empty() &&
           static_cast<uint8_t>(blob.envelope[0]) == kBlobVersion)
      << "unsupported checkpoint blob version for op " << op;
  return std::string_view(blob.envelope)
      .substr(blob.payload_offset);
}

size_t RecoveryCoordinator::BlobStoredBytes(int op) const {
  auto it = blobs_.find(op);
  return it == blobs_.end() ? 0 : it->second.envelope.size();
}

uint64_t RecoveryCoordinator::CheckpointTuplesOut(int op) const {
  auto it = blobs_.find(op);
  return it == blobs_.end() ? 0 : it->second.tuples_out;
}

void RecoveryCoordinator::ResetCheckpointTuplesOut(int op) {
  auto it = blobs_.find(op);
  if (it != blobs_.end()) it->second.tuples_out = 0;
}

void RecoveryCoordinator::Log::Append(size_t port, const Tuple& tuple) {
  if (fill == slots.size()) {
    slots.push_back({port, tuple});
  } else {
    slots[fill].port = port;
    slots[fill].tuple = tuple;
  }
  ++fill;
}

void RecoveryCoordinator::LogDelivery(int op, size_t port,
                                      const Tuple& tuple) {
  logs_[op].Append(port, tuple);
}

void RecoveryCoordinator::LogDeliveries(int op, size_t port,
                                        TupleSpan tuples) {
  Log& log = logs_[op];
  for (const Tuple& t : tuples) log.Append(port, t);
}

std::span<const RecoveryCoordinator::Delivery>
RecoveryCoordinator::DeliveryLog(int op) const {
  auto it = logs_.find(op);
  if (it == logs_.end()) return {};
  return {it->second.slots.data(), it->second.fill};
}

void RecoveryCoordinator::CountReplayedTuples(uint64_t n) {
  section_.replayed_tuples += n;
}

uint64_t RecoveryCoordinator::RecordSend(const EdgeKey& key,
                                         const Tuple& tuple, uint64_t bytes) {
  EdgeState& edge = edges_[key];
  uint64_t seq = edge.next_seq++;
  PendingSend pending;
  pending.tuple = tuple;
  pending.bytes = bytes;
  pending.attempts = 0;
  pending.next_retry_eid = current_eid_ + 1;
  edge.pending.emplace(seq, std::move(pending));
  ++section_.reliable_sent;
  return seq;
}

bool RecoveryCoordinator::Deliver(const EdgeKey& key, uint64_t seq,
                                  const Tuple& tuple, const ApplyFn& apply) {
  EdgeState& edge = edges_[key];
  // The arrival acks the sender buffer regardless of freshness: the ack
  // channel is reliable and instantaneous, so reaching the receiver at all
  // stops retransmission.
  edge.pending.erase(seq);
  if (seq <= edge.applied_seq || edge.arrived.count(seq) != 0) {
    ++section_.retx_dup_discarded;
    return false;
  }
  edge.arrived.emplace(seq, tuple);
  // Apply the maximal contiguous run in sequence order (per-edge FIFO).
  auto it = edge.arrived.find(edge.applied_seq + 1);
  while (it != edge.arrived.end() && it->first == edge.applied_seq + 1) {
    apply(key.port, it->second);
    ++section_.reliable_applied;
    edge.applied_seq = it->first;
    it = edge.arrived.erase(it);
  }
  return true;
}

bool RecoveryCoordinator::SendSpanIfIdle(const EdgeKey& key, uint64_t n) {
  EdgeState& edge = edges_[key];
  if (!edge.pending.empty() || !edge.arrived.empty()) return false;
  edge.next_seq += n;
  edge.applied_seq += n;
  section_.reliable_sent += n;
  section_.reliable_applied += n;
  return true;
}

void RecoveryCoordinator::ScanRetransmits(uint64_t eid,
                                          const ResendFn& resend) {
  // Pass 1: collect due items and advance their backoff. Resending can
  // synchronously deliver, ack, and erase pending entries, so the callback
  // pass works over copies.
  std::vector<RetxItem> due;
  for (auto& [key, edge] : edges_) {
    for (auto& [seq, pending] : edge.pending) {
      if (pending.next_retry_eid > eid) continue;
      ++pending.attempts;
      RetxItem item;
      item.key = key;
      item.seq = seq;
      item.tuple = pending.tuple;
      item.bytes = pending.bytes;
      item.escalate = pending.attempts > config_.max_retx_attempts;
      uint64_t shift = std::min<uint64_t>(pending.attempts, 16);
      uint64_t backoff = std::min<uint64_t>(config_.max_backoff_epochs,
                                            uint64_t{1} << shift);
      pending.next_retry_eid = eid + std::max<uint64_t>(1, backoff);
      due.push_back(std::move(item));
    }
  }
  for (const RetxItem& item : due) resend(item);
}

void RecoveryCoordinator::ForceRetransmits(const ResendFn& resend) {
  // Same two-pass shape as ScanRetransmits: resending can synchronously
  // deliver, ack, and erase pending entries, so the callback pass works over
  // copies. No attempt is charged and escalate stays false — the heal-drain
  // is a scheduling shortcut, not a delivery retry.
  std::vector<RetxItem> due;
  for (auto& [key, edge] : edges_) {
    for (auto& [seq, pending] : edge.pending) {
      RetxItem item;
      item.key = key;
      item.seq = seq;
      item.tuple = pending.tuple;
      item.bytes = pending.bytes;
      item.escalate = false;
      due.push_back(std::move(item));
    }
  }
  for (const RetxItem& item : due) resend(item);
}

void RecoveryCoordinator::DrainEdgePending(const EdgeKey& key,
                                           const ResendFn& resend) {
  auto edge_it = edges_.find(key);
  if (edge_it == edges_.end()) return;
  std::vector<RetxItem> due;
  for (const auto& [seq, pending] : edge_it->second.pending) {
    RetxItem item;
    item.key = key;
    item.seq = seq;
    item.tuple = pending.tuple;
    item.bytes = pending.bytes;
    item.escalate = true;
    due.push_back(std::move(item));
  }
  for (const RetxItem& item : due) resend(item);
}

void RecoveryCoordinator::DrainAllPending(const ResendFn& resend) {
  std::vector<EdgeKey> keys;
  keys.reserve(edges_.size());
  for (const auto& [key, edge] : edges_) keys.push_back(key);
  for (const EdgeKey& key : keys) DrainEdgePending(key, resend);
}

bool RecoveryCoordinator::Quiesced() const {
  for (const auto& [key, edge] : edges_) {
    if (!edge.pending.empty() || !edge.arrived.empty()) return false;
  }
  return section_.reliable_sent == section_.reliable_applied;
}

void RecoveryCoordinator::SetSuppression(int op, uint64_t n) {
  if (n == 0) {
    suppress_.erase(op);
  } else {
    suppress_[op] = n;
  }
}

bool RecoveryCoordinator::Suppress(int op, uint64_t idx) {
  auto it = suppress_.find(op);
  if (it == suppress_.end() || idx > it->second) return false;
  ++section_.replay_suppressed;
  return true;
}

void RecoveryCoordinator::CountRestore(uint64_t bytes) {
  ++section_.restores;
  section_.restored_bytes += bytes;
}

RecoverySection RecoveryCoordinator::section(
    double cycles_per_checkpoint_byte) const {
  RecoverySection out = section_;
  out.checkpoint_cost_cycles =
      cycles_per_checkpoint_byte *
      static_cast<double>(out.checkpoint_bytes + out.restored_bytes);
  return out;
}

}  // namespace streampart
