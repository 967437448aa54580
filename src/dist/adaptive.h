#pragma once

/// \file adaptive.h
/// \brief Runtime-adaptive operator placement: a feedback loop from measured
/// telemetry back into the §5 placement, so the cluster survives workload
/// drift instead of running a stale plan indefinitely.
///
/// Each epoch the AdaptiveController folds what the runtime measured —
/// per-host model-cycle demand, per-edge channel tuples/bytes, filter pass
/// rates — into fast/slow EWMAs, detects drift as their divergence, and
/// re-costs the current placement against every candidate *stage* move
/// (push an aggregate stage down to a tap host, pull it back) with the same
/// receiver-side cost model the optimizer used, re-parameterized with the
/// measured rates (optimizer/recost.h). A winning move is executed at the
/// epoch boundary through the checkpoint/state-migration machinery
/// (ClusterRuntime::MigrateStage) and priced against
/// `cycles_per_checkpoint_byte`, amortized like the skew detector's moves.
///
/// Robustness is the contract, not just the feature:
///
///   * **Hysteresis** — a candidate must project a relative bottleneck
///     improvement above `hysteresis` before it is taken; smaller wins are
///     recorded as suppressed, never executed.
///   * **Amortization** — the migration price (2 × stage state bytes ×
///     checkpoint-byte weight) must repay itself within `amortize` epochs of
///     projected gain.
///   * **Oscillation damper** — no A→B→A: a stage that left host X cannot
///     return to X within the amortization horizon (rollbacks are exempt —
///     they ARE the return path).
///   * **Capped-backoff cooldown** — after every executed move the
///     controller stays quiet for `cooldown` epochs; each rollback doubles
///     the cooldown (capped at `max_cooldown`), each committed improvement
///     resets it.
///   * **Automatic rollback** — every move opens a watch window: if the
///     measured bottleneck has not improved on its pre-move baseline by at
///     least hysteresis/2 within `rollback` epochs (the first, migration-
///     dirty epoch excluded), the move is reverted.
///
/// Every decision — considered, taken, rolled back, suppressed (and why),
/// or advice-only — lands in the ledger's `adaptive` section
/// (metrics/report.h AdaptiveSection), so the differential battery can prove
/// drift runs produce answers multiset-identical to the static plan while
/// the decision trail stays auditable. A controller that never engages
/// leaves the ledger byte-identical to a run without it.
///
/// docs/ADAPTIVE.md walks through the drift detector, the cost
/// re-parameterization, and the hysteresis/rollback state machine.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/fault.h"
#include "metrics/report.h"
#include "metrics/stats.h"
#include "optimizer/recost.h"

namespace streampart {

/// \brief One movable unit: a connected component of same-host plan
/// operators (connected over local edges at Build time). Source partitions
/// are not stages — capture never moves.
struct AdaptiveStage {
  int id = -1;
  std::vector<int> ops;  ///< plan op ids, topological order
  std::string label;     ///< first op's label, for ledger rows and logs
};

/// \brief One measured dataflow edge between a producer (source partition
/// or stage) and a consumer stage. The runtime resolves hosts at snapshot
/// time, so edges stay valid across migrations.
struct AdaptiveEdge {
  int producer_stage = -1;    ///< -1 when the producer is a source partition
  int consumer_stage = -1;
  int source_partition = -1;  ///< >= 0 for capture-intake edges
};

/// \brief Cumulative counters the runtime snapshots at each epoch boundary.
/// The controller diffs consecutive snapshots itself; after any topology
/// change (kill, migration by any controller) the runtime sets
/// `topology_changed` and the controller re-baselines instead of diffing
/// across the discontinuity.
struct AdaptiveSnapshot {
  uint64_t eid = 0;
  bool topology_changed = false;
  std::vector<double> host_cycles;   ///< cumulative model cycles per host
  std::vector<int> stage_host;       ///< current host of each stage
  std::vector<double> stage_cycles;  ///< cumulative compute cycles per stage
  std::vector<uint64_t> stage_state_bytes;  ///< current blob bytes per stage
  std::vector<int> edge_from_host;   ///< producing host of each edge, now
  std::vector<double> edge_tuples;   ///< cumulative tuples per edge
  std::vector<double> edge_bytes;    ///< cumulative bytes per edge
  double ops_tuples_in = 0;          ///< cumulative, all operators
  double ops_tuples_out = 0;         ///< cumulative, all operators
  double source_tuples = 0;          ///< cumulative cluster intake
  std::vector<bool> host_alive;
};

/// \brief What the controller wants done at this epoch boundary.
struct AdaptiveAction {
  enum class Kind { kNone, kMove, kRollback };
  Kind kind = Kind::kNone;
  int stage = -1;
  int to_host = -1;
  bool probe = false;  ///< forced worst-candidate move (probe_epoch)
};

/// \brief Executes the `adapt` directive of a FaultPlan. Owned by
/// ClusterRuntime; every hook is called from the single simulation thread.
class AdaptiveController {
 public:
  /// Lazily materializes the telemetry scope `adaptive`; may return null
  /// (telemetry off). Invoked only on the first recorded event, so a
  /// disengaged controller creates no scope.
  using ScopeMaker = std::function<StatsScope*()>;

  AdaptiveController(const FaultPlan& plan, int num_hosts);

  /// \brief Checks the knob ranges (Build-time error reporting).
  Status Validate() const;

  void set_scope_maker(ScopeMaker maker) { scope_maker_ = std::move(maker); }

  /// \brief Wires the measured-rate cost model: the receiver-side network
  /// weights and the checkpoint-byte weight that prices migrations.
  void set_cost_weights(const RecostWeights& weights,
                        double cycles_per_checkpoint_byte) {
    weights_ = weights;
    ckpt_byte_cycles_ = cycles_per_checkpoint_byte;
  }

  /// \brief Installs the stage decomposition computed at Build.
  void SetTopology(std::vector<AdaptiveStage> stages,
                   std::vector<AdaptiveEdge> edges);

  bool active() const { return active_; }
  uint64_t epoch_width() const { return epoch_width_; }
  const AdaptiveSpec& spec() const { return spec_; }
  const std::vector<AdaptiveStage>& stages() const { return stages_; }
  const std::vector<AdaptiveEdge>& edges() const { return edges_; }

  /// \brief True when \p eid starts a new epoch (runtime then snapshots and
  /// calls OnEpoch before routing the tuple that opened it).
  bool EpochBoundary(uint64_t eid) const {
    return !last_eid_.has_value() || eid > *last_eid_;
  }

  /// \brief Folds one epoch-boundary snapshot and decides. Returns the move
  /// (or rollback) the runtime should execute now, if any; the runtime
  /// reports back through RecordExecuted / RecordMoveUnavailable.
  AdaptiveAction OnEpoch(const AdaptiveSnapshot& snapshot);

  /// \brief The runtime executed \p action, migrating \p moved_state_bytes
  /// of operator state. Opens the rollback watch (moves) or applies the
  /// backoff (rollbacks).
  void RecordExecuted(const AdaptiveAction& action,
                      uint64_t moved_state_bytes);

  /// \brief The runtime could not execute \p action (no recovery machinery
  /// to migrate state through): recorded as an advice-only decision, with
  /// the normal cooldown so the advice is not re-issued every epoch.
  void RecordMoveUnavailable(const AdaptiveAction& action);

  /// \brief Assembles the ledger section. `engaged` is false when the
  /// controller never recorded a drift event or decision (byte-identity for
  /// drift-free runs).
  AdaptiveSection section() const;

  /// \brief Chronological decision rows (test introspection).
  const std::vector<AdaptiveDecisionRow>& decisions() const {
    return decisions_;
  }

 private:
  struct Candidate {
    int stage = -1;
    int to_host = -1;
    double bottleneck = 0;   ///< projected cluster bottleneck
    double gain = 0;         ///< relative improvement vs the status quo
    double gain_cycles = 0;  ///< absolute per-epoch bottleneck relief
  };
  /// One executed relocation, for the oscillation damper.
  struct MoveRecord {
    int stage = -1;
    int from_host = -1;
    uint64_t eid = 0;
  };
  /// Open rollback watch of the last executed move.
  struct Watch {
    AdaptiveAction action;
    int from_host = -1;
    uint64_t deadline = 0;   ///< first epoch the verdict can be reached
    double baseline = 0;     ///< pre-move fast-EWMA bottleneck
    double move_cycles = 0;
  };

  void Rebaseline(const AdaptiveSnapshot& snapshot);
  void FoldRates(const AdaptiveSnapshot& snapshot, double elapsed);
  /// Measured rates of one stage, assembled from the EWMA'd edge rates.
  StageRates RatesOf(int stage, const AdaptiveSnapshot& snapshot) const;
  std::vector<Candidate> EvaluateCandidates(const AdaptiveSnapshot& snapshot);
  void Record(AdaptiveDecisionRow row);
  void EnsureInstruments();
  double FastBottleneck() const;

  // Plan-derived configuration.
  AdaptiveSpec spec_;
  uint64_t epoch_width_ = 1;
  int num_hosts_ = 0;
  bool active_ = false;
  RecostWeights weights_;
  double ckpt_byte_cycles_ = 0;
  ScopeMaker scope_maker_;

  std::vector<AdaptiveStage> stages_;
  std::vector<AdaptiveEdge> edges_;

  // Measurement state: previous cumulative snapshot + EWMA'd per-epoch
  // rates. fast (alpha .5) reacts within a couple of epochs; slow (alpha .1)
  // remembers the regime — their divergence is the drift signal.
  std::optional<uint64_t> last_eid_;
  bool have_prev_ = false;
  std::vector<double> prev_host_cycles_;
  std::vector<double> prev_stage_cycles_;
  std::vector<double> prev_edge_tuples_;
  std::vector<double> prev_edge_bytes_;
  double prev_ops_in_ = 0, prev_ops_out_ = 0, prev_source_ = 0;
  std::vector<double> host_fast_, host_slow_;
  std::vector<double> stage_fast_;
  std::vector<double> edge_tuples_fast_, edge_bytes_fast_;
  double intake_fast_ = 0, intake_slow_ = 0;
  double pass_fast_ = 0, pass_slow_ = 0;
  uint64_t rate_epochs_ = 0;  ///< epochs with a delta since the last baseline
  bool warmed_ = false;       ///< initial warmup completed (latches on)

  // Decision state.
  uint64_t cooldown_now_ = 0;    ///< current backoff length (epochs)
  uint64_t cooldown_until_ = 0;  ///< first epoch allowed to move again
  bool probe_done_ = false;
  std::optional<Watch> watch_;
  std::vector<MoveRecord> move_history_;
  // Context of the action returned by the last OnEpoch, consumed by the
  // RecordExecuted / RecordMoveUnavailable callback.
  double pending_gain_ = 0;
  int pending_from_ = -1;
  std::optional<AdaptiveDecisionRow> watch_rollback_row_;

  // Section accumulators.
  bool engaged_ = false;
  uint64_t epochs_ = 0;
  uint64_t drift_events_ = 0;
  uint64_t candidates_considered_ = 0;
  uint64_t moves_taken_ = 0;
  uint64_t moves_suppressed_ = 0;
  uint64_t rollbacks_ = 0;
  uint64_t probes_ = 0;
  uint64_t moved_state_bytes_ = 0;
  std::vector<AdaptiveDecisionRow> decisions_;

  // Telemetry (null until the first event; see kAdapt* in metrics/stats.h).
  bool instruments_bound_ = false;
  Counter* t_drift_ = nullptr;
  Counter* t_moves_ = nullptr;
  Counter* t_suppressed_ = nullptr;
  Counter* t_rollbacks_ = nullptr;
};

}  // namespace streampart
