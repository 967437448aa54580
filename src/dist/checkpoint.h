#pragma once

/// \file checkpoint.h
/// \brief Lossless recovery for the simulated cluster: epoch-aligned
/// operator-state checkpointing, acked channel retransmission, and state
/// migration on host death.
///
/// The PR-3 fault machinery (dist/fault.h) makes degradation *measurable*:
/// a killed host's open windows are invalidated and in-flight tuples are
/// counted lost. This coordinator makes the same faults *survivable*. Three
/// mechanisms compose, all executed inside the single-threaded simulation so
/// snapshots are globally consistent by construction:
///
///  1. **Epoch-aligned checkpoints.** Every `checkpoint_interval` epochs the
///     runtime serializes each operator's state (exec/operator.h
///     CheckpointState) into an in-simulation blob store, wrapped in a
///     versioned envelope `[u8 version][varint payload_len][payload]`.
///     Checkpoints are incremental: an operator whose delivery log is empty
///     (no tuples delivered since its last snapshot) is skipped — its stored
///     blob is still exact.
///
///  2. **Acked retransmission.** Every cross-host operator edge and every
///     source->operator edge carries per-edge sequence numbers (same-host
///     operator edges are direct calls and cannot lose tuples; same-host
///     source edges keep their sequencing so a migration-collapsed edge
///     stays ordered). The sender buffers each
///     tuple until the receiver's ack; the simulation models the data channel
///     as faulty but the ack channel as reliable and instantaneous (an
///     arrival acks synchronously), so "unacked" means the tuple is still in
///     flight inside a degraded channel — dropped, held for reorder, or
///     queued. Unacked tuples retransmit on later epochs with capped
///     exponential backoff; after `max_retx_attempts` the send escalates to
///     a direct delivery (the simulation's stand-in for an out-of-band
///     reliable path), so no tuple is ever lost. Receivers apply tuples in
///     sequence order and discard duplicates, giving per-edge FIFO
///     exactly-once delivery over arbitrarily lossy channels.
///
///  3. **State migration.** When a host dies, its operators are rebuilt on a
///     survivor from the last checkpoint, and the post-checkpoint suffix of
///     each operator's *delivery log* — every (port, tuple) applied to it
///     since its last snapshot, in original arrival order — is replayed into
///     the restored instance. Replay re-emissions are suppressed at external
///     sinks by output index (the emission stream of a deterministic
///     operator is reproducible), so downstream hosts and result sinks see
///     every output exactly once. The net effect asserted by the recovery
///     battery: a run with kills and lossy channels produces byte-identical
///     output to the healthy run.
///
/// The coordinator itself is pure bookkeeping — blob store, delivery logs,
/// per-edge sequencing state, suppression windows, and the RecoverySection
/// ledger — with no knowledge of operators or hosts. ClusterRuntime drives
/// it (dist/cluster_runtime.cc) and owns all delivery side effects.
/// docs/FAULTS.md ("Lossless recovery") documents the semantics and limits.

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/report.h"
#include "types/tuple.h"

namespace streampart {

/// \brief Recovery knobs, derived from the FaultPlan (dist/fault.h).
struct RecoveryConfig {
  /// Epochs between checkpoints (> 0; 0 never constructs a coordinator).
  uint64_t checkpoint_interval = 4;
  /// Timestamp stride per epoch (FaultPlan::epoch_width).
  uint64_t epoch_width = 1;
  /// Retransmit attempts per tuple before escalating to direct delivery.
  uint64_t max_retx_attempts = 8;
  /// Cap on the exponential retransmit backoff, in epochs.
  uint64_t max_backoff_epochs = 8;
};

/// \brief Identity of one directed, acked edge. `producer` is the producing
/// operator's plan id, or -(partition + 1) for source->operator edges (source
/// partitions are not operators but their edges still need sequencing).
struct EdgeKey {
  int producer = 0;
  int consumer = 0;
  size_t port = 0;

  friend bool operator<(const EdgeKey& a, const EdgeKey& b) {
    if (a.producer != b.producer) return a.producer < b.producer;
    if (a.consumer != b.consumer) return a.consumer < b.consumer;
    return a.port < b.port;
  }
  friend bool operator==(const EdgeKey&, const EdgeKey&) = default;
};

/// \brief The recovery bookkeeping engine: checkpoint blob store, per-op
/// delivery logs, per-edge ack/retransmit state, and replay suppression.
/// All methods are O(log n) map operations; no operator or host knowledge.
class RecoveryCoordinator {
 public:
  explicit RecoveryCoordinator(RecoveryConfig config);

  const RecoveryConfig& config() const { return config_; }

  // -- Epoch clock -----------------------------------------------------------

  /// \brief Observes epoch id \p eid (source time / epoch_width). Returns
  /// true when it starts a new epoch (monotonic; repeats and regressions
  /// return false). The first observed epoch becomes the checkpoint
  /// baseline.
  bool AdvanceEpoch(uint64_t eid);
  uint64_t current_epoch() const { return current_eid_; }

  /// \brief True when `checkpoint_interval` epochs have elapsed since the
  /// last checkpoint (or the baseline).
  bool CheckpointDue() const;
  /// \brief Opens a checkpoint round: bumps the round counter and re-arms
  /// the interval.
  void BeginCheckpoint();

  // -- Checkpoint blob store -------------------------------------------------

  /// \brief True when \p op must be serialized this round: it has no stored
  /// blob yet, or tuples were delivered to it since its last snapshot (its
  /// delivery log is non-empty). A false result means the stored blob is
  /// still exact and the snapshot can be skipped (incremental checkpointing).
  bool ShouldSerialize(int op) const;
  void CountSkipped() { ++section_.ops_skipped; }

  /// \brief Stores \p payload (the operator's CheckpointState bytes) for
  /// \p op, wrapped in the versioned envelope, records \p tuples_out as the
  /// operator's output position at snapshot time, and trims the operator's
  /// delivery log (the blob now covers it). Returns the stored envelope
  /// size in bytes (the quantity charged to the host's ckpt_bytes).
  size_t StoreBlob(int op, std::string payload, uint64_t tuples_out);

  bool HasBlob(int op) const { return blobs_.count(op) != 0; }
  /// \brief The unwrapped CheckpointState payload of \p op's stored blob.
  /// Requires HasBlob(op).
  std::string_view BlobPayload(int op) const;
  /// \brief Stored envelope size of \p op's blob; 0 when none.
  size_t BlobStoredBytes(int op) const;
  /// \brief The operator's tuples_out at its last snapshot (0 when none) —
  /// the base of the replay-suppression window.
  uint64_t CheckpointTuplesOut(int op) const;
  /// \brief Re-bases \p op's snapshot output position to 0 after migration:
  /// the restored instance's output numbering restarts at the snapshot
  /// point, so a later snapshot/suppression window must count from there.
  void ResetCheckpointTuplesOut(int op);

  // -- Per-operator delivery logs --------------------------------------------

  /// One applied delivery into an operator instance.
  struct Delivery {
    size_t port = 0;
    Tuple tuple;
  };

  /// \brief Records that \p tuple was applied (Push) to \p op on \p port.
  /// Called on every delivery while recovery is active — local edges,
  /// source-local edges, and reliable-edge applies — EXCEPT migration
  /// replay, which replays the log without re-logging.
  void LogDelivery(int op, size_t port, const Tuple& tuple);
  /// \brief LogDelivery for every tuple of \p tuples, in order.
  void LogDeliveries(int op, size_t port, TupleSpan tuples);
  /// \brief The post-snapshot delivery suffix of \p op, in original arrival
  /// order across all ports and producers.
  std::span<const Delivery> DeliveryLog(int op) const;
  void CountReplayedTuples(uint64_t n);

  // -- Acked edges -----------------------------------------------------------

  /// One unacked in-flight tuple on an edge.
  struct PendingSend {
    Tuple tuple;
    uint64_t bytes = 0;          ///< wire size (for resend accounting)
    uint64_t attempts = 0;       ///< retransmissions performed so far
    uint64_t next_retry_eid = 0; ///< epoch at which the next retry is due
  };

  /// A due retransmission handed to the runtime's resend callback.
  struct RetxItem {
    EdgeKey key;
    uint64_t seq = 0;
    Tuple tuple;
    uint64_t bytes = 0;
    /// Attempts exhausted: deliver directly instead of re-entering the
    /// faulty channel.
    bool escalate = false;
  };
  using ResendFn = std::function<void(const RetxItem&)>;
  /// Applies one in-order tuple into the consumer (LogDelivery + Push).
  using ApplyFn = std::function<void(size_t port, const Tuple& tuple)>;

  /// \brief Registers a send on \p key: assigns the next sequence number,
  /// buffers the tuple until acked, and schedules its first retry for the
  /// next epoch. Returns the assigned sequence number (1-based).
  uint64_t RecordSend(const EdgeKey& key, const Tuple& tuple, uint64_t bytes);

  /// \brief Receives sequence \p seq on \p key. Duplicates (already applied,
  /// or already buffered out-of-order) are discarded and counted; a fresh
  /// arrival acks the sender buffer, then applies the maximal contiguous
  /// run of buffered sequences through \p apply in order. Returns true when
  /// the arrival was fresh.
  bool Deliver(const EdgeKey& key, uint64_t seq, const Tuple& tuple,
               const ApplyFn& apply);

  /// \brief Sends and applies \p n tuples on \p key in one step, when the
  /// edge holds nothing pending and nothing buffered out of order. Then n
  /// RecordSend + in-order Deliver pairs would leave nothing behind, so only
  /// the books move: both sequence counters and reliable_sent /
  /// reliable_applied advance by n. The caller logs and applies the tuples.
  /// Returns false, touching nothing, when the edge is not idle.
  bool SendSpanIfIdle(const EdgeKey& key, uint64_t n);

  /// \brief Finds every pending send whose retry is due at epoch \p eid,
  /// advances its backoff (capped exponential, `max_backoff_epochs`), and
  /// hands it to \p resend — with `escalate` set once its attempts exceed
  /// `max_retx_attempts`. Two-pass (collect, then invoke) so resends that
  /// synchronously ack and erase pending entries cannot invalidate the scan.
  void ScanRetransmits(uint64_t eid, const ResendFn& resend);

  /// \brief Escalates every pending send of \p key to \p resend regardless
  /// of its retry schedule — used before finishing the consumer's port so
  /// nothing is stranded in a sender buffer.
  void DrainEdgePending(const EdgeKey& key, const ResendFn& resend);
  /// \brief DrainEdgePending over every edge (end of run).
  void DrainAllPending(const ResendFn& resend);

  /// \brief Resends every pending send immediately, ignoring its backoff
  /// schedule, without charging an attempt and without escalating — the
  /// heal-drain: after a network partition heals, the backlog the severed
  /// pairs accumulated redelivers through the restored channels right away
  /// instead of waiting out backoffs inflated by refused retries.
  void ForceRetransmits(const ResendFn& resend);

  /// \brief True when every edge has drained: no pending (unacked) sends,
  /// no buffered out-of-order arrivals, and every sent tuple was applied.
  /// The zero-unrecovered-loss identity of the recovery battery.
  bool Quiesced() const;

  // -- Replay suppression ----------------------------------------------------

  /// \brief Arms suppression of the first \p n emissions of migrated
  /// operator \p op: during log replay the restored instance re-emits the
  /// outputs it already published before the kill; external sinks drop
  /// emission indices <= n.
  void SetSuppression(int op, uint64_t n);
  /// \brief True when emission index \p idx (1-based, the operator's
  /// tuples_out after the emission) falls inside \p op's suppression
  /// window. Counts each suppressed emission.
  bool Suppress(int op, uint64_t idx);

  // -- Accounting ------------------------------------------------------------

  void CountRestore(uint64_t bytes);
  void CountMigratedOp() { ++section_.ops_migrated; }
  void CountRetxSent() { ++section_.retx_sent; }
  void CountEscalated() { ++section_.retx_escalated; }

  /// \brief Ledger snapshot; \p cycles_per_checkpoint_byte prices the
  /// serialization traffic (CpuCostParams::cycles_per_checkpoint_byte).
  RecoverySection section(double cycles_per_checkpoint_byte) const;

 private:
  /// Stored checkpoint of one operator.
  struct Blob {
    std::string envelope;       ///< [version][varint len][payload]
    size_t payload_offset = 0;  ///< payload start within envelope
    uint64_t tuples_out = 0;    ///< output position at snapshot time
  };
  /// Sequencing state of one acked edge.
  struct EdgeState {
    uint64_t next_seq = 1;     ///< next sequence number to assign
    uint64_t applied_seq = 0;  ///< highest contiguously applied sequence
    std::map<uint64_t, PendingSend> pending;  ///< sent, unacked
    std::map<uint64_t, Tuple> arrived;        ///< received, awaiting a gap
  };

  /// Delivery log of one operator: its first `fill` slots are live. A
  /// snapshot resets `fill` and keeps the slots, so later deliveries are
  /// copy-assigned into retained tuples (keeping their value storage)
  /// instead of allocating fresh ones.
  struct Log {
    std::vector<Delivery> slots;
    size_t fill = 0;

    void Append(size_t port, const Tuple& tuple);
  };

  RecoveryConfig config_;
  bool started_ = false;
  uint64_t current_eid_ = 0;
  uint64_t last_ckpt_eid_ = 0;
  std::map<int, Blob> blobs_;
  std::map<int, Log> logs_;
  std::map<EdgeKey, EdgeState> edges_;
  /// Armed replay-suppression windows: op -> highest suppressed emission
  /// index.
  std::map<int, uint64_t> suppress_;
  RecoverySection section_;
};

}  // namespace streampart
