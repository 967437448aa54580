#include "metrics/stats.h"

namespace streampart {

std::vector<std::pair<uint64_t, uint64_t>> Histogram::NonZeroBuckets() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    uint64_t bound = i == 0 ? 0
                     : i >= 64 ? ~uint64_t{0}
                               : (uint64_t{1} << i) - 1;
    out.emplace_back(bound, buckets_[i]);
  }
  return out;
}

StatsScope::Entry* StatsScope::Resolve(const StatDef& def,
                                       std::string instance_name) {
  auto [it, inserted] = entries_.try_emplace(std::move(instance_name));
  if (inserted) it->second.def = &def;
  return &it->second;
}

Counter* StatsScope::counter(const StatDef& def) {
  return &Resolve(def, def.name)->counter;
}

Counter* StatsScope::counter(const StatDef& def, size_t port) {
  return &Resolve(def, std::string(def.name) + "." + std::to_string(port))
              ->counter;
}

Gauge* StatsScope::gauge(const StatDef& def) {
  return &Resolve(def, def.name)->gauge;
}

Histogram* StatsScope::histogram(const StatDef& def) {
  return &Resolve(def, def.name)->histogram;
}

void StatsScope::ForEach(
    const std::function<void(const std::string&, const Entry&)>& fn) const {
  for (const auto& [name, entry] : entries_) fn(name, entry);
}

StatsScope* StatsRegistry::GetScope(const std::string& name) {
#if STREAMPART_TELEMETRY
  if (!enabled()) return nullptr;
  auto [it, inserted] = scopes_.try_emplace(name, name);
  return &it->second;
#else
  (void)name;
  return nullptr;
#endif
}

void StatsRegistry::RecordEvent(TraceEvent event) {
#if STREAMPART_TELEMETRY
  if (events_enabled()) events_.push_back(std::move(event));
#else
  (void)event;
#endif
}

void StatsRegistry::ForEachScope(
    const std::function<void(const StatsScope&)>& fn) const {
  for (const auto& [name, scope] : scopes_) fn(scope);
}

namespace stats {

const StatDef kTuplesIn = {"tuples_in", StatKind::kCounter, "tuples", false,
                           "tuples delivered to the operator (all ports)"};
const StatDef kTuplesOut = {"tuples_out", StatKind::kCounter, "tuples", false,
                            "tuples emitted downstream"};
const StatDef kBytesOut = {"bytes_out", StatKind::kCounter, "bytes", false,
                           "wire size of emitted tuples"};
const StatDef kGroupProbes = {"group_probes", StatKind::kCounter, "probes",
                              false,
                              "group-table probes that found an existing "
                              "group"};
const StatDef kGroupInserts = {"group_inserts", StatKind::kCounter, "groups",
                               false, "new groups created"};
const StatDef kJoinProbes = {"join_probes", StatKind::kCounter, "pairs", false,
                             "join pair evaluations"};
const StatDef kPredicateEvals = {"predicate_evals", StatKind::kCounter,
                                 "evals", false,
                                 "WHERE/HAVING/residual predicate "
                                 "evaluations"};
const StatDef kLateTuples = {"late_tuples", StatKind::kCounter, "tuples",
                             false,
                             "tuples dropped because their tumbling window "
                             "already closed"};

const StatDef kPortTuplesIn = {"port_tuples_in", StatKind::kCounter, "tuples",
                               false, "tuples delivered to one input port"};
const StatDef kPortBatchesIn = {"port_batches_in", StatKind::kCounter,
                                "batches", true,
                                "PushBatch calls on one input port "
                                "(delivery-granularity dependent)"};
const StatDef kBatchesOut = {"batches_out", StatKind::kCounter, "batches",
                             true,
                             "EmitBatch calls issued downstream "
                             "(delivery-granularity dependent)"};

const StatDef kColBatchesIn = {"col_batches_in", StatKind::kCounter,
                               "batches", true,
                               "PushColumns deliveries accepted (columnar "
                               "path only)"};
const StatDef kColRowsIn = {"col_rows_in", StatKind::kCounter, "tuples", true,
                            "selected rows delivered via PushColumns "
                            "(columnar path only)"};
const StatDef kColFallbackRows = {"col_fallback_rows", StatKind::kCounter,
                                  "tuples", true,
                                  "columnar rows materialized back to the "
                                  "row-batch path by the default "
                                  "DoPushColumns fallback"};

const StatDef kWindowFlushes = {"window_flushes", StatKind::kCounter,
                                "windows", false,
                                "non-empty tumbling/sliding windows "
                                "finalized"};
const StatDef kGroupsFlushed = {"groups_flushed", StatKind::kCounter,
                                "groups", false,
                                "group states finalized across all window "
                                "flushes"};
const StatDef kWindowGroups = {"window_groups", StatKind::kHistogram,
                               "groups", false,
                               "group-table occupancy at each window flush"};
const StatDef kGroupsPeak = {"groups_peak", StatKind::kGauge, "groups", false,
                             "peak open-group count over the run"};
const StatDef kPaneFlushes = {"pane_flushes", StatKind::kCounter, "panes",
                              false,
                              "sliding-window panes closed (sub-aggregation "
                              "boundaries)"};

const StatDef kJoinWindows = {"join_windows", StatKind::kCounter, "windows",
                              false, "join windows evaluated"};
const StatDef kJoinWindowTuples = {"join_window_tuples", StatKind::kHistogram,
                                   "tuples", false,
                                   "buffered tuples (both sides) per join "
                                   "window at evaluation"};

const StatDef kChanSent = {"chan_sent", StatKind::kCounter, "tuples", false,
                           "tuples entering a degraded cross-host channel"};
const StatDef kChanDelivered = {"chan_delivered", StatKind::kCounter, "tuples",
                                false,
                                "channel tuples handed to a live receiver"};
const StatDef kChanDropped = {"chan_dropped", StatKind::kCounter, "tuples",
                              false,
                              "channel tuples lost to the drop probability"};
const StatDef kChanDupExtras = {"chan_dup_extras", StatKind::kCounter,
                                "tuples", false,
                                "extra channel tuple copies created by "
                                "duplication"};
const StatDef kChanReordered = {"chan_reordered", StatKind::kCounter, "tuples",
                                false,
                                "channel tuples held back by the reorder "
                                "stage"};
const StatDef kChanQueueDropped = {"chan_queue_dropped", StatKind::kCounter,
                                   "tuples", false,
                                   "drop-oldest evictions of a bounded "
                                   "channel queue"};

const StatDef kChanRetxSent = {"chan_retx_sent", StatKind::kCounter, "tuples",
                               false,
                               "unacked tuples resent through the channel "
                               "after a retransmit timeout"};
const StatDef kChanRetxDupDiscarded = {"chan_retx_dup_discarded",
                                       StatKind::kCounter, "tuples", false,
                                       "arrivals discarded by the receiver "
                                       "as already-applied duplicates"};
const StatDef kChanRetxEscalated = {"chan_retx_escalated", StatKind::kCounter,
                                    "tuples", false,
                                    "unacked tuples delivered directly after "
                                    "exhausting bounded retransmit attempts"};

const StatDef kCkptSnapshots = {"ckpt_snapshots", StatKind::kCounter,
                                "snapshots", false,
                                "epoch-aligned checkpoint rounds the host "
                                "participated in"};
const StatDef kCkptOpsSerialized = {"ckpt_ops_serialized", StatKind::kCounter,
                                    "operators", false,
                                    "operator states serialized into the "
                                    "checkpoint store"};
const StatDef kCkptOpsSkipped = {"ckpt_ops_skipped", StatKind::kCounter,
                                 "operators", false,
                                 "operator snapshots skipped because the "
                                 "state was unchanged (incremental "
                                 "checkpointing)"};
const StatDef kCkptBytes = {"ckpt_bytes", StatKind::kCounter, "bytes", false,
                            "serialized operator-state bytes written to the "
                            "checkpoint store"};
const StatDef kCkptRestores = {"ckpt_restores", StatKind::kCounter,
                               "operators", false,
                               "operator states restored from the checkpoint "
                               "store during migration"};
const StatDef kCkptRestoredBytes = {"ckpt_restored_bytes", StatKind::kCounter,
                                    "bytes", false,
                                    "serialized operator-state bytes read "
                                    "back during migration"};
const StatDef kCkptReplayedTuples = {"ckpt_replayed_tuples",
                                     StatKind::kCounter, "tuples", false,
                                     "post-checkpoint tuples replayed into "
                                     "migrated operators from delivery logs"};

const StatDef kShedTuples = {"shed_tuples", StatKind::kCounter, "tuples",
                             false,
                             "source tuples shed at the capture tap by the "
                             "keep-1-in-m policy before any capture cost"};
const StatDef kBudgetDeferrals = {"budget_deferrals", StatKind::kCounter,
                                  "tuples", false,
                                  "source tuples parked in the host's "
                                  "backpressure queue by the epoch budget "
                                  "guard"};
const StatDef kBudgetQueueDropped = {"budget_queue_dropped",
                                     StatKind::kCounter, "tuples", false,
                                     "drop-oldest evictions of the host's "
                                     "bounded backpressure queue"};
const StatDef kBudgetOverEpochs = {"budget_over_epochs", StatKind::kCounter,
                                   "epochs", false,
                                   "epochs whose charged model cycles "
                                   "exceeded the host's budget"};
const StatDef kSkewMoves = {"skew_moves", StatKind::kCounter, "moves", false,
                            "hot partitions migrated off this host by the "
                            "skew detector"};

const StatDef kAdaptDriftEvents = {"adapt_drift_events", StatKind::kCounter,
                                   "epochs", false,
                                   "epochs whose fast/slow EWMA rates "
                                   "diverged past the drift threshold"};
const StatDef kAdaptMovesTaken = {"adapt_moves_taken", StatKind::kCounter,
                                  "moves", false,
                                  "stage migrations the adaptive controller "
                                  "executed (probes included)"};
const StatDef kAdaptMovesSuppressed = {"adapt_moves_suppressed",
                                       StatKind::kCounter, "moves", false,
                                       "winning candidates vetoed by a "
                                       "robustness guard (hysteresis, "
                                       "cooldown, damper, amortization)"};
const StatDef kAdaptRollbacks = {"adapt_rollbacks", StatKind::kCounter,
                                 "moves", false,
                                 "stage moves reverted after failing to "
                                 "improve measured cost in their watch "
                                 "window"};

const StatDef kMemberPartitions = {"member_partitions", StatKind::kCounter,
                                   "events", false,
                                   "network-partition events applied (the "
                                   "cluster split into isolated groups)"};
const StatDef kMemberHeals = {"member_heals", StatKind::kCounter, "events",
                              false,
                              "heal events applied (connectivity restored, "
                              "retransmit backlog drained)"};
const StatDef kMemberRejoins = {"member_rejoins", StatKind::kCounter,
                                "events", false,
                                "hosts re-admitted with state rebalanced "
                                "back onto them"};
const StatDef kMemberRejoinsSuppressed = {"member_rejoins_suppressed",
                                          StatKind::kCounter, "events", false,
                                          "rejoin rebalances vetoed by the "
                                          "cooldown guard (host admitted, no "
                                          "state moved)"};
const StatDef kMemberSendsRefused = {"member_sends_refused",
                                     StatKind::kCounter, "tuples", false,
                                     "cross-group sends refused at the "
                                     "sender while a partition held"};
const StatDef kMemberMovedBytes = {"member_moved_bytes", StatKind::kCounter,
                                   "bytes", false,
                                   "serialized state bytes migrated back to "
                                   "rejoining hosts"};

const StatDef kSketchUpdates = {"sketch_updates", StatKind::kCounter,
                                "updates", false,
                                "count-min point updates applied by the "
                                "host-side sketch operator"};
const StatDef kSketchSummaries = {"sketch_summaries", StatKind::kCounter,
                                  "summaries", false,
                                  "per-epoch sketch summaries emitted toward "
                                  "the aggregator"};
const StatDef kSketchSummaryBytes = {"sketch_summary_bytes",
                                     StatKind::kCounter, "bytes", false,
                                     "serialized bytes of all emitted sketch "
                                     "summaries"};
const StatDef kSketchEpochFlushes = {"sketch_epoch_flushes",
                                     StatKind::kCounter, "epochs", false,
                                     "sketch epochs closed (host: summary "
                                     "built; aggregator: estimates emitted)"};
const StatDef kSketchMergedSummaries = {"sketch_merged_summaries",
                                        StatKind::kCounter, "summaries",
                                        false,
                                        "host summaries folded into the "
                                        "aggregator's merged sketch"};
const StatDef kSketchMergedBytes = {"sketch_merged_bytes", StatKind::kCounter,
                                    "bytes", false,
                                    "serialized summary bytes received and "
                                    "merged at the aggregator"};
const StatDef kSketchEstimates = {"sketch_estimates", StatKind::kCounter,
                                  "estimates", false,
                                  "approximate group rows answered from the "
                                  "merged sketch"};

const std::vector<const StatDef*>& EngineStatCatalog() {
  static const std::vector<const StatDef*> kCatalog = {
      &kTuplesIn,      &kTuplesOut,    &kBytesOut,      &kGroupProbes,
      &kGroupInserts,  &kJoinProbes,   &kPredicateEvals, &kLateTuples,
      &kPortTuplesIn,  &kPortBatchesIn, &kBatchesOut,
      &kColBatchesIn,  &kColRowsIn,    &kColFallbackRows, &kWindowFlushes,
      &kGroupsFlushed, &kWindowGroups, &kGroupsPeak,    &kPaneFlushes,
      &kJoinWindows,   &kJoinWindowTuples,
      &kChanSent,      &kChanDelivered, &kChanDropped,  &kChanDupExtras,
      &kChanReordered, &kChanQueueDropped,
      &kChanRetxSent,  &kChanRetxDupDiscarded, &kChanRetxEscalated,
      &kCkptSnapshots, &kCkptOpsSerialized, &kCkptOpsSkipped, &kCkptBytes,
      &kCkptRestores,  &kCkptRestoredBytes, &kCkptReplayedTuples,
      &kShedTuples,    &kBudgetDeferrals, &kBudgetQueueDropped,
      &kBudgetOverEpochs, &kSkewMoves,
      &kAdaptDriftEvents, &kAdaptMovesTaken, &kAdaptMovesSuppressed,
      &kAdaptRollbacks,
      &kMemberPartitions, &kMemberHeals, &kMemberRejoins,
      &kMemberRejoinsSuppressed, &kMemberSendsRefused, &kMemberMovedBytes,
      &kSketchUpdates, &kSketchSummaries, &kSketchSummaryBytes,
      &kSketchEpochFlushes, &kSketchMergedSummaries, &kSketchMergedBytes,
      &kSketchEstimates,
  };
  return kCatalog;
}

}  // namespace stats
}  // namespace streampart
