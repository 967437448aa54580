#pragma once

/// \file sketch_op.h
/// \brief The sketch execution leg: bounded-error aggregation when neither a
/// compatible partition set nor raw-tuple shipping is affordable.
///
/// The §5 optimizer's third outcome (docs/SKETCHES.md) splits an
/// incompatible tumbling-window aggregate into two operators. On every host
/// a SketchOp folds the host's share of the stream into one count-min sketch
/// per aggregate slot plus a candidate-key set, and at each epoch boundary
/// ships a single serialized *summary tuple* — {epoch, summary blob} —
/// instead of the epoch's raw tuples. At the aggregator a SketchMergeOp
/// folds the per-host summaries of each epoch together (count-min merge is
/// exact cell-wise addition; candidate sets union) and answers the query
/// from the merged sketch: one approximate group row per candidate key,
/// passed through HAVING and the output projection like the exact leg.
///
/// Guarantees carried to the RunLedger (marked exact=false there):
/// per-epoch, every estimate over-counts its true value by at most
/// eps * N_epoch with probability >= 1 - delta, where N_epoch is the epoch's
/// total stream mass folded into that aggregate's sketch — and never
/// under-counts. Candidate keys are the *observed* group keys, so no true
/// group is ever missing from the output; HAVING may pass spurious groups
/// only within the over-count band.
///
/// Both operators honor the engine-wide determinism contracts: per-tuple and
/// batched delivery produce identical outputs and counters, checkpoints are
/// a pure function of logical state (dist/checkpoint.h), and the host leg
/// consumes the ambient Horvitz–Thompson shed weight (dist/overload.h) by
/// scaling update deltas, so overload control composes with sketching.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "plan/query_node.h"
#include "sketch/sketch.h"

namespace streampart {

/// \brief Error-budget parameters the optimizer stamps into the plan; both
/// legs must be built from equal specs or the summaries will not merge.
struct SketchSpec {
  double eps = 0.05;         ///< relative over-count budget per epoch
  double confidence = 0.99;  ///< probability the eps bound holds per estimate
  uint64_t seed = 0x5eedc0de;

  /// \brief The count-min grid realizing this budget.
  sketch::CmParams Grid() const {
    return sketch::CmParams::FromErrorBound(eps, 1.0 - confidence, seed);
  }

  friend bool operator==(const SketchSpec&, const SketchSpec&) = default;
};

/// \brief Parses a SketchOp summary blob and folds it into \p sketches /
/// \p candidates: grids merge cell-wise, candidate keys union. Each
/// candidate key must decode to exactly \p key_values encoded Values (the
/// non-temporal group values a flush decodes back out of it). A blob that
/// fails any check is rejected before anything merges.
Status MergeSummary(std::string_view blob, size_t key_values,
                    std::vector<sketch::CmSketch>* sketches,
                    std::map<std::string, uint64_t>* candidates);

/// \brief Host-side sketch builder over a kAggregate node.
///
/// Applies the node's WHERE, evaluates the group-by expressions, and folds
/// each admitted tuple into one count-min sketch per aggregate slot (COUNT
/// updates mass 1, SUM updates the argument's numeric value), keyed by the
/// serde encoding of the non-temporal group values. Epochs tumble on the
/// node's temporal group key exactly like AggregateOp windows, including the
/// drop-and-count policy for late tuples.
class SketchOp : public Operator {
 public:
  SketchOp(QueryNodePtr node, SketchSpec spec);

  std::string label() const override { return "sketch(" + node_->name + ")"; }

  const SketchSpec& spec() const { return spec_; }

  /// \brief Deterministic work totals for the ledger's sketch section
  /// (independent of telemetry, identical on both delivery paths).
  struct Accounting {
    uint64_t updates = 0;        ///< count-min point updates applied
    uint64_t summaries = 0;      ///< summary tuples emitted
    uint64_t summary_bytes = 0;  ///< serialized bytes of those summaries
    uint64_t epochs = 0;         ///< epochs closed
  };
  const Accounting& accounting() const { return acc_; }

  /// \brief The open epoch (if any) and its candidate keys.
  OpenState open_state() const override {
    uint64_t n = candidates_.size();
    return {n > 0 ? uint64_t{1} : uint64_t{0}, n};
  }

  void CheckpointState(std::string* out) const override;
  Status RestoreState(std::string_view data) override;

  /// \brief Shed weight scales every update delta (Horvitz–Thompson), so
  /// sketch totals — and the error bound's N — track the estimated, not the
  /// observed, stream mass.
  bool BindShedWeight(const uint64_t* weight) override {
    shed_weight_ = weight;
    return true;
  }
  bool ShedSampleable() const override { return true; }

 protected:
  void DoPush(size_t port, const Tuple& tuple) override;
  void DoFinish() override;
  void DoBindTelemetry(StatsScope* scope) override;

 private:
  /// Tumbling-epoch boundary check; false when \p epoch is late.
  bool AdvanceEpoch(const Value& epoch);
  /// Serializes and emits the open epoch's summary, then resets.
  void FlushEpoch();

  QueryNodePtr node_;
  SketchSpec spec_;
  size_t temporal_idx_ = 0;       // index into group_by of the epoch key
  std::vector<int> group_cols_;   // bound column index per group slot
  std::vector<int> arg_cols_;     // bound column index per aggregate arg
  std::vector<sketch::CmSketch> sketches_;  // one per aggregate slot
  /// Observed group keys of the open epoch: serde-encoded non-temporal
  /// group values -> their 64-bit hash. Sorted, so summaries serialize
  /// deterministically.
  std::map<std::string, uint64_t> candidates_;
  std::optional<Value> current_epoch_;
  const uint64_t* shed_weight_ = nullptr;
  std::vector<Value> key_vals_;  // reused group-value scratch
  std::string key_buf_;          // reused encoded-key scratch
  Accounting acc_;

  // Telemetry instruments (null unless bound; see metrics/stats.h).
  Counter* t_updates_ = nullptr;
  Counter* t_summaries_ = nullptr;
  Counter* t_summary_bytes_ = nullptr;
  Counter* t_epoch_flushes_ = nullptr;
};

/// \brief Aggregator-side summary merge and answer extraction.
///
/// Consumes the ordered stream of per-host summary tuples (the cross-host
/// merge upstream orders them by epoch), merges all summaries of one epoch,
/// and on epoch advance emits the approximate result rows: one internal
/// tuple per candidate key — group values decoded from the key, aggregate
/// slots answered by count-min point estimates — filtered through HAVING and
/// projected through the node's outputs, in sorted candidate order.
class SketchMergeOp : public Operator {
 public:
  SketchMergeOp(QueryNodePtr node, SketchSpec spec);

  std::string label() const override {
    return "sketch_merge(" + node_->name + ")";
  }

  const SketchSpec& spec() const { return spec_; }

  /// \brief Deterministic totals for the ledger's sketch section.
  struct Accounting {
    uint64_t merged_summaries = 0;  ///< host summaries folded in
    uint64_t merged_bytes = 0;      ///< serialized bytes of those summaries
    uint64_t epochs = 0;            ///< epochs answered
    uint64_t estimates = 0;         ///< approximate group rows computed
    /// Largest per-epoch sketch mass seen; eps * max_epoch_mass is the
    /// widest absolute over-count bound any emitted estimate carries.
    uint64_t max_epoch_mass = 0;
  };
  const Accounting& accounting() const { return acc_; }

  OpenState open_state() const override {
    uint64_t n = candidates_.size();
    return {n > 0 ? uint64_t{1} : uint64_t{0}, n};
  }

  void CheckpointState(std::string* out) const override;
  Status RestoreState(std::string_view data) override;

  /// Estimates inherit the host legs' Horvitz–Thompson scaling; nothing to
  /// bind here, but shed answers stay boundable.
  bool ShedSampleable() const override { return true; }

 protected:
  void DoPush(size_t port, const Tuple& tuple) override;
  void DoFinish() override;
  void DoBindTelemetry(StatsScope* scope) override;

 private:
  void FlushEpoch();
  /// HAVING + output projection of internal_scratch_ into flush_batch_.
  void FlushInternal();

  QueryNodePtr node_;
  SketchSpec spec_;
  size_t temporal_idx_ = 0;
  std::vector<int> out_cols_;  // bound internal-tuple index per output
  std::vector<sketch::CmSketch> sketches_;  // merged; one per aggregate slot
  std::map<std::string, uint64_t> candidates_;  // encoded key -> hash
  std::optional<Value> current_epoch_;
  Tuple internal_scratch_;  // reused key+estimates tuple during flush
  TupleBatch flush_batch_;  // reused epoch-flush output scratch
  Accounting acc_;

  // Telemetry instruments (null unless bound; see metrics/stats.h).
  Counter* t_merged_summaries_ = nullptr;
  Counter* t_merged_bytes_ = nullptr;
  Counter* t_estimates_ = nullptr;
  Counter* t_epoch_flushes_ = nullptr;
};

/// \brief The schema of the summary stream between the two legs:
/// {<temporal field name>: source temporal type (ordered), "summary":
/// string}. Built by the optimizer when it wires the sketch leg.
SchemaPtr SketchSummarySchema(const QueryNode& node);

}  // namespace streampart
