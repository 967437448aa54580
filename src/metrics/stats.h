#pragma once

/// \file stats.h
/// \brief Always-on per-operator telemetry: a per-engine registry of named
/// counters, gauges and histograms.
///
/// The paper's entire evaluation is a measurement exercise (CPU load and
/// packets/sec on the aggregator), and regressions inside operators —
/// group-table probe storms, batch fragmentation, late-tuple drops — are
/// invisible in end-of-run totals. This registry gives every operator cheap
/// named instruments that the run ledger (metrics/report.h) serializes.
///
/// Cost model:
///  * Compiled out entirely with -DSTREAMPART_TELEMETRY=0 (CMake option
///    STREAMPART_TELEMETRY): GetScope() returns nullptr, so no scope is ever
///    created and every recording site folds to a null check.
///  * Runtime toggle: StatsRegistry::set_enabled(false) before operators
///    bind makes GetScope() return nullptr — identical zero-cost shape.
///  * When enabled, instruments are plain single-writer machine words (no
///    locks, no atomics): each registry belongs to one engine thread, and
///    readers (the ledger) snapshot after the run. bench/micro_engine
///    records the end-to-end overhead of both modes in BENCH_engine.json.
///
/// Determinism: instruments marked deterministic carry identical values on
/// the per-tuple and batched execution paths (tests/metrics_test.cc and
/// bench/micro_engine enforce ledger bit-identity). Instruments that count
/// delivery granularity itself (batches) are marked advisory and excluded
/// from the default ledger.
///
/// Every instrument any operator can export is declared in the catalog at
/// the bottom of this file; docs/METRICS.md must document each one (the
/// StatsDocTest doc-lint in tests/metrics_test.cc enforces 100% coverage).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#ifndef STREAMPART_TELEMETRY
#define STREAMPART_TELEMETRY 1
#endif

namespace streampart {

enum class StatKind { kCounter, kGauge, kHistogram };

/// \brief Static definition of one instrument: identity + documentation
/// metadata. Instances live in stats.cc so the catalog has stable addresses.
struct StatDef {
  const char* name;  ///< canonical name, unique within a scope
  StatKind kind;
  const char* unit;  ///< "tuples", "bytes", "groups", ...
  /// True when the value depends on delivery granularity (per-tuple vs
  /// batched). Advisory instruments are excluded from default run ledgers so
  /// the ledger stays bit-identical across execution paths.
  bool advisory;
  const char* help;  ///< one-line "when it increments"
};

/// \brief Monotonic event count. Single-writer; zero-initialized.
class Counter {
 public:
  void Inc() { ++v_; }
  void Add(uint64_t n) { v_ += n; }
  uint64_t value() const { return v_; }

 private:
  uint64_t v_ = 0;
};

/// \brief Point-in-time level (e.g. peak open groups).
class Gauge {
 public:
  void Set(int64_t v) { v_ = v; }
  void SetMax(int64_t v) {
    if (v > v_) v_ = v;
  }
  int64_t value() const { return v_; }

 private:
  int64_t v_ = 0;
};

/// \brief Power-of-two histogram over uint64 samples: bucket i counts
/// samples whose bit width is i (bucket 0 holds the value 0, bucket i>0
/// holds [2^(i-1), 2^i - 1]). Fixed layout, so serialization is
/// deterministic.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t v) {
    ++buckets_[BucketOf(v)];
    sum_ += v;
    ++count_;
  }
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// \brief (inclusive upper bound, count) of every non-empty bucket, in
  /// increasing bound order.
  std::vector<std::pair<uint64_t, uint64_t>> NonZeroBuckets() const;

 private:
  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }
  uint64_t buckets_[kBuckets] = {};
  uint64_t sum_ = 0;
  uint64_t count_ = 0;
};

/// \brief One structured trace event (e.g. a window flush), recorded only
/// when the registry's event log is enabled (--trace-events).
struct TraceEvent {
  std::string scope;  ///< owning operator scope name
  const char* kind;   ///< "window_flush", "window_join", ...
  std::string epoch;  ///< logical window key (printed Value), "" if none
  uint64_t groups = 0;   ///< kind-specific: groups / buffered tuples
  uint64_t emitted = 0;  ///< kind-specific: tuples emitted
};

/// \brief The instruments of one operator instance, keyed by instance name
/// (catalog name, or catalog name + ".<port>" for per-port instruments).
class StatsScope {
 public:
  explicit StatsScope(std::string name) : name_(std::move(name)) {}
  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

  const std::string& name() const { return name_; }

  /// \brief Finds or creates the instrument for \p def. Returned pointers
  /// are stable for the registry's lifetime.
  Counter* counter(const StatDef& def);
  /// \brief Per-port counter instance: "<def.name>.<port>".
  Counter* counter(const StatDef& def, size_t port);
  Gauge* gauge(const StatDef& def);
  Histogram* histogram(const StatDef& def);

  struct Entry {
    const StatDef* def = nullptr;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  /// \brief Visits every instrument in instance-name order (deterministic).
  void ForEach(
      const std::function<void(const std::string&, const Entry&)>& fn) const;
  size_t size() const { return entries_.size(); }

 private:
  Entry* Resolve(const StatDef& def, std::string instance_name);

  std::string name_;
  std::map<std::string, Entry> entries_;  // ordered -> deterministic ledger
};

/// \brief Per-engine instrument registry. One registry per engine thread
/// (LocalEngine) or per simulated host (ClusterRuntime); the run ledger
/// folds them together.
class StatsRegistry {
 public:
  /// False when the whole subsystem is compiled out
  /// (-DSTREAMPART_TELEMETRY=0): GetScope() always returns nullptr and no
  /// storage exists behind the registry.
  static constexpr bool kCompiledIn = STREAMPART_TELEMETRY != 0;

  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// \brief Runtime toggle. Must be set before operators bind: a disabled
  /// registry hands out no scopes, so already-bound instruments keep
  /// recording.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_ && kCompiledIn; }

  /// \brief Opt-in structured event log (--trace-events).
  void set_events_enabled(bool enabled) { events_enabled_ = enabled; }
  bool events_enabled() const { return events_enabled_ && enabled(); }

  /// \brief Finds or creates the scope \p name; nullptr when disabled or
  /// compiled out (callers must treat nullptr as "telemetry off").
  StatsScope* GetScope(const std::string& name);

  void RecordEvent(TraceEvent event);
  const std::vector<TraceEvent>& events() const { return events_; }

  /// \brief Visits scopes in name order (deterministic).
  void ForEachScope(const std::function<void(const StatsScope&)>& fn) const;
  size_t num_scopes() const { return scopes_.size(); }
  bool empty() const { return scopes_.empty(); }

 private:
  bool enabled_ = true;
  bool events_enabled_ = false;
  std::map<std::string, StatsScope> scopes_;
  std::vector<TraceEvent> events_;
};

// ---------------------------------------------------------------------------
// Instrument catalog — every instrument any operator exports. New
// instruments MUST be added here and documented in docs/METRICS.md
// (StatsDocTest fails otherwise).
// ---------------------------------------------------------------------------
namespace stats {

// OpStats mirrors, exported once per operator at Finish (the cost-model
// currency of metrics/cpu_model.h).
extern const StatDef kTuplesIn;
extern const StatDef kTuplesOut;
extern const StatDef kBytesOut;
extern const StatDef kGroupProbes;
extern const StatDef kGroupInserts;
extern const StatDef kJoinProbes;
extern const StatDef kPredicateEvals;
extern const StatDef kLateTuples;

// Live per-port delivery instruments (Operator base class).
extern const StatDef kPortTuplesIn;
extern const StatDef kPortBatchesIn;  // advisory
extern const StatDef kBatchesOut;     // advisory

// Columnar delivery (exec/column_batch.h, Operator::PushColumns). All
// advisory: they count delivery granularity on the columnar path and stay
// zero on the tuple/batch paths, so default ledgers remain byte-identical
// across execution modes.
extern const StatDef kColBatchesIn;     // advisory
extern const StatDef kColRowsIn;        // advisory
extern const StatDef kColFallbackRows;  // advisory

// Aggregation (AggregateOp / SlidingAggregateOp).
extern const StatDef kWindowFlushes;
extern const StatDef kGroupsFlushed;
extern const StatDef kWindowGroups;  // histogram
extern const StatDef kGroupsPeak;    // gauge
extern const StatDef kPaneFlushes;   // sliding only

// Join (JoinOp).
extern const StatDef kJoinWindows;
extern const StatDef kJoinWindowTuples;  // histogram

// Degraded cross-host channels (dist/fault.h). Recorded under scope
// `channel#<from>-><to>` in the sending host's registry.
extern const StatDef kChanSent;
extern const StatDef kChanDelivered;
extern const StatDef kChanDropped;
extern const StatDef kChanDupExtras;
extern const StatDef kChanReordered;
extern const StatDef kChanQueueDropped;

// Acked-channel retransmission (dist/checkpoint.h). kChanRetxSent lives in
// the channel scope `channel#<from>-><to>`; the dup-discard / escalation
// counters are recorded by the runtime under the same scope.
extern const StatDef kChanRetxSent;
extern const StatDef kChanRetxDupDiscarded;
extern const StatDef kChanRetxEscalated;

// Checkpoint / recovery coordinator (dist/checkpoint.h). Recorded under
// scope `checkpoint#<host>` in the owning host's registry.
extern const StatDef kCkptSnapshots;
extern const StatDef kCkptOpsSerialized;
extern const StatDef kCkptOpsSkipped;
extern const StatDef kCkptBytes;
extern const StatDef kCkptRestores;
extern const StatDef kCkptRestoredBytes;
extern const StatDef kCkptReplayedTuples;

// Overload control (dist/overload.h). Recorded under scope
// `overload#<host>` in the host's registry, bound lazily on the first
// event so disengaged runs create no scope.
extern const StatDef kShedTuples;
extern const StatDef kBudgetDeferrals;
extern const StatDef kBudgetQueueDropped;
extern const StatDef kBudgetOverEpochs;
extern const StatDef kSkewMoves;

// Adaptive placement (dist/adaptive.h). Recorded under scope `adaptive` in
// host 0's registry, bound lazily on the first drift event or decision so
// disengaged runs create no scope.
extern const StatDef kAdaptDriftEvents;
extern const StatDef kAdaptMovesTaken;
extern const StatDef kAdaptMovesSuppressed;
extern const StatDef kAdaptRollbacks;

// Membership lifecycle (dist/fault.h partition/heal/rejoin). Recorded under
// scope `membership` in host 0's registry, bound lazily when the first
// membership event applies so plans whose events never fire create no scope.
extern const StatDef kMemberPartitions;
extern const StatDef kMemberHeals;
extern const StatDef kMemberRejoins;
extern const StatDef kMemberRejoinsSuppressed;
extern const StatDef kMemberSendsRefused;
extern const StatDef kMemberMovedBytes;

// Sketch execution leg (exec/sketch_op.h, docs/SKETCHES.md). Host-side
// SketchOp instruments (sketch_updates, sketch_summaries,
// sketch_summary_bytes) live in its operator scope; aggregator-side
// SketchMergeOp instruments (sketch_merged_summaries, sketch_merged_bytes,
// sketch_estimates) in the merge operator's scope; sketch_epoch_flushes in
// both.
extern const StatDef kSketchUpdates;
extern const StatDef kSketchSummaries;
extern const StatDef kSketchSummaryBytes;
extern const StatDef kSketchEpochFlushes;
extern const StatDef kSketchMergedSummaries;
extern const StatDef kSketchMergedBytes;
extern const StatDef kSketchEstimates;

/// \brief Every StatDef above, in declaration order. The doc-lint and the
/// run-ledger schema iterate this.
const std::vector<const StatDef*>& EngineStatCatalog();

}  // namespace stats
}  // namespace streampart
