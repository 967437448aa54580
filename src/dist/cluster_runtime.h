#pragma once

/// \file cluster_runtime.h
/// \brief Simulated cluster executing a distributed plan.
///
/// The runtime instantiates the real streaming operators for every alive
/// plan operator, wires local edges directly and cross-host edges through
/// accounting channels, routes source tuples through the configured
/// partitioner, and collects per-host work/traffic ledgers. Per DESIGN.md,
/// the operators do genuine computation over genuine tuples — the simulation
/// only substitutes cycle accounting for wall-clock execution.
///
/// Edges are id-resolved: wiring lambdas capture plan operator ids and look
/// up instances and hosts at delivery time, so lossless recovery
/// (dist/checkpoint.h) can replace a dead host's instances and re-home them
/// on a survivor without rewiring captured pointers. On the healthy path the
/// lookups resolve to the build-time placement, byte-identically.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/adaptive.h"
#include "dist/checkpoint.h"
#include "dist/fault.h"
#include "dist/overload.h"
#include "dist/partitioner.h"
#include "exec/column_batch.h"
#include "exec/ops.h"
#include "metrics/cpu_model.h"
#include "metrics/report.h"
#include "metrics/stats.h"
#include "optimizer/dist_plan.h"
#include "plan/query_graph.h"

namespace streampart {

/// \brief Execution outcome of one cluster run.
struct ClusterRunResult {
  std::vector<HostMetrics> hosts;
  /// Output tuples of every plan sink, keyed by stream name.
  std::map<std::string, TupleBatch> outputs;
  /// Total source tuples pushed.
  uint64_t source_tuples = 0;
  /// Hosts killed by fault injection, in kill order (empty when healthy).
  std::vector<int> dead_hosts;

  /// \brief Checked host lookup: Status instead of UB on an out-of-range
  /// host, and a loud error when the host was killed mid-run (its ledger
  /// row stops at the kill and must not be read as a full-run measurement).
  Result<const HostMetrics*> CheckedHost(int host) const;

  /// \brief Metrics of the aggregator host. Aborts (SP_CHECK) when the
  /// aggregator is out of range or died — a dead aggregator must fail
  /// loudly, not return a silently truncated row.
  const HostMetrics& aggregator(int aggregator_host = 0) const;

  /// \brief Combined CPU-seconds of all non-aggregator (leaf) hosts.
  double LeafCpuSeconds(const CpuCostParams& params,
                        int aggregator_host = 0) const;
};

/// \brief Executes a DistPlan over pushed source tuples.
class ClusterRuntime {
 public:
  /// \param graph supplies the UDAF registry; \param plan the placed
  /// operators. Both must outlive the runtime.
  ClusterRuntime(const QueryGraph* graph, const DistPlan* plan,
                 const ClusterConfig& config);

  /// \brief Controls per-host telemetry registries (on by default). Must be
  /// called before Build: operators bind their instruments at build time.
  void set_telemetry_enabled(bool enabled) { telemetry_enabled_ = enabled; }
  /// \brief Opt-in structured trace events on every host registry
  /// (--trace-events). Must be called before data flows.
  void set_trace_events_enabled(bool enabled);

  /// \brief Selects the execution path PushSourceBatch drives (exec mode of
  /// the run, docs/ARCHITECTURE.md): kBatch (default) routes row batches,
  /// kTuple degenerates every batch to per-tuple routing (the differential
  /// oracle), kColumnar converts each per-partition bucket to column-major
  /// form once and delivers it via PushColumns — local consumers borrow the
  /// columns, cross-host edges encode the columns once per bucket
  /// (byte-identical wire accounting to the row path). Must be called before
  /// Build. Columnar applies to unarmed runs only. Under lossless recovery
  /// (with or without host kills) kBatch and kColumnar both route row
  /// batches, cut at source-time advances; every other armed controller
  /// degenerates to per-tuple routing in every mode.
  void set_exec_mode(ExecMode mode) { exec_mode_ = mode; }
  ExecMode exec_mode() const { return exec_mode_; }

  /// \brief Attaches a fault plan (dist/fault.h). Must be called before
  /// Build. An empty plan leaves every execution path byte-identical to a
  /// run without the call; a non-empty plan routes cross-host traffic
  /// through the fault controller and enables kills/recovery. A plan with
  /// `checkpoint_interval > 0` additionally enables lossless recovery
  /// (dist/checkpoint.h): epoch-aligned state snapshots, acked retransmit
  /// buffers on every edge, and state migration instead of window
  /// invalidation when a host dies. A plan with budget/shed directives arms
  /// the overload controller (dist/overload.h).
  void set_fault_plan(FaultPlan plan);

  /// \brief Cost-model parameters the overload controller charges budgets
  /// in. Defaults to CpuCostParams{}; callers that pass custom params to
  /// MakeLedger should set the same ones here before Build so budget
  /// enforcement and the ledger agree on the cycle currency.
  void set_cost_params(const CpuCostParams& params) { cost_params_ = params; }

  /// \brief The fault controller, or nullptr when no plan was attached.
  const FaultController* fault_controller() const { return faults_.get(); }
  /// \brief The recovery coordinator, or nullptr when the plan did not
  /// configure a checkpoint interval.
  const RecoveryCoordinator* recovery_coordinator() const {
    return recovery_.get();
  }
  /// \brief The overload controller, or nullptr when the plan carried no
  /// budget/shed directives.
  const OverloadController* overload_controller() const {
    return overload_.get();
  }
  /// \brief The adaptive placement controller, or nullptr when the plan
  /// carried no `adapt` directive.
  const AdaptiveController* adaptive_controller() const {
    return adaptive_.get();
  }

  /// \brief Instantiates operators and channels; builds the partitioner for
  /// \p actual_ps (round-robin when empty).
  Status Build(const PartitionSet& actual_ps);

  /// \brief Routes one source tuple of stream \p source to its partition.
  void PushSource(const std::string& source, const Tuple& tuple);

  /// \brief Routes a batch of source tuples in one pass: one routing lookup,
  /// per-partition bucketing, and — for cross-host edges — one serialization
  /// round trip per (partition bucket, producer) instead of one per tuple
  /// per consumer. All accounted metrics (source_tuples, net_tuples,
  /// net_bytes, operator stats) are identical to the per-tuple path. Under
  /// lossless recovery the batch is cut where source time advances: each
  /// cut runs the epoch hooks once, then the slice routes as spans over the
  /// acked edges. Plans with per-tuple controllers (see SpanRoute) route
  /// tuple by tuple.
  void PushSourceBatch(const std::string& source, TupleSpan batch);

  /// \brief End-of-stream on every source partition; flushes all operators.
  void FinishSources();

  /// \brief Ledger and outputs (valid after FinishSources).
  const ClusterRunResult& result() const { return result_; }

  /// \brief Per-stream summed operator stats (debugging/tests).
  OpStats StatsForStream(const std::string& stream_name) const;

  /// \brief Telemetry registry of host \p host (never null; empty when
  /// telemetry is disabled or compiled out).
  const StatsRegistry& host_registry(int host) const {
    return *host_stats_[host];
  }

  /// \brief Folds the run's host ledgers, the cost model, and every host's
  /// telemetry registry into one structured RunLedger (valid after
  /// FinishSources). Meta fields hosts/duration_sec/source_tuples are
  /// pre-populated; callers add workload/epoch_unix and outputs as needed.
  RunLedger MakeLedger(const CpuCostParams& params, double duration_sec,
                       const RunLedgerOptions& options = {}) const;

  /// \brief Assembles the ledger's sketch section from the plan's sketch-role
  /// instances (host rows from SketchOp accounting, totals and the error
  /// budget from SketchMergeOp). Inactive when the plan has no sketch leg.
  SketchSection MakeSketchSection() const;

 private:
  /// One wired edge, id-resolved (see file comment): the consuming
  /// operator's plan id plus its input port. Instances and hosts are looked
  /// up at delivery time via instances_/op_host_.
  struct Edge {
    int consumer;
    size_t port;
  };

  void AccountTransfer(int from_host, int to_host, const Tuple& tuple);
  /// Batched ledger update: \p n tuples totalling \p bytes encoded bytes
  /// moved from \p from_host to \p to_host.
  void AccountTransferBatch(int from_host, int to_host, uint64_t n,
                            size_t bytes);

  /// True when fault injection is live (plan attached and non-empty).
  bool faults_active() const { return faults_ != nullptr && faults_->active(); }
  /// True when lossless recovery is configured (checkpoint_interval > 0).
  bool recovery_active() const { return recovery_ != nullptr; }
  /// True when the plan armed budgets or shedding (dist/overload.h).
  bool overload_active() const { return overload_ != nullptr; }
  /// True when the plan armed adaptive placement (dist/adaptive.h).
  bool adaptive_active() const { return adaptive_ != nullptr; }
  /// True when every armed controller acts only at epoch boundaries, so
  /// source batches route as epoch slices and recovery sinks take whole
  /// emitted batches: nothing armed, or lossless recovery with or without
  /// host kills. Channel faults (per-send draws), membership (per-send
  /// refusal), overload (per-tuple admission), adaptive placement, kills
  /// without recovery, and the kTuple oracle keep per-tuple delivery.
  bool SpanRoute() const;
  /// Current host of plan operator \p id (build placement until migration).
  int OpHost(int id) const { return op_host_[id]; }
  /// Current host of an acked edge's producer: an operator's host, or the
  /// (possibly re-homed) host of a source partition.
  int ProducerHost(const EdgeKey& key) const;

  /// Rebuilds the operator instance of plan op \p id (migration restore).
  OperatorPtr MakeInstance(int id);
  /// Binds instance \p id into its current host's registry.
  void BindInstanceTelemetry(int id);
  /// Wires the local edge producer -> (consumer, port). Healthy: a direct
  /// consumer link. Under recovery: a logging sink plus a finish hook, so
  /// every delivery lands in the consumer's delivery log and replay can mute
  /// the edge.
  void WireLocalEdge(int producer, int consumer, size_t port);
  /// Adds the end-of-stream hook for the remote edge producer -> (consumer,
  /// port): flush the channel (and drain the edge's retransmit buffer) before
  /// the consumer's port finishes.
  void AddRemoteFinishHook(int producer, int consumer, size_t port);
  /// Attaches producer \p child's cross-host output sink (serialize once,
  /// deliver to every remote consumer edge).
  void AttachRemoteSinks(int child);
  /// Attaches the result-collection sink of plan sink \p id.
  void AttachResultSink(int id);

  /// The degraded channel for the pair (created lazily, counters bound in
  /// the sender's registry), or nullptr for healthy pairs / no controller.
  FaultChannel* ChannelForPair(int from_host, int to_host);
  /// Routes one producer emission across a degraded (or healthy) cross-host
  /// edge — the lossy (non-recovery) path. \p wire is the undecoded
  /// original (sized for accounting), \p decoded the post-serde copy.
  void DeliverRemoteFaulty(int from_host, const Tuple& wire,
                           const Tuple& decoded, int consumer, size_t port);
  /// Receiving side of a faulty delivery: accounts and pushes unless the
  /// destination host is dead. Returns delivery success.
  bool ReceiveRemote(const Tuple& tuple, size_t bytes, int consumer,
                     size_t port);

  // --- Lossless recovery (dist/checkpoint.h) ---
  /// Cross-host emission under recovery: suppress replay re-emissions, then
  /// send each remote edge reliably.
  void EmitRemoteReliable(int child, const Tuple& tuple);
  /// Sends one tuple over the acked edge (producer_key, consumer, port):
  /// assigns a sequence number, buffers for retransmission, and routes
  /// through the degraded channel (or directly). Migration-collapsed edges
  /// (from == to) keep their sequencing but skip the network.
  void SendReliable(int producer_key, int from, const Tuple& wire,
                    const Tuple& decoded, int consumer, size_t port);
  /// SendReliable over a span (\p decoded row i is \p wire row i after
  /// serde; \p enc_bytes their encoded size). On a healthy, idle edge the
  /// span moves in one step: books advanced by n, one log append, one
  /// PushBatch, and one AccountTransferBatch when the edge crosses hosts.
  /// Otherwise each tuple takes SendReliable in order.
  void SendReliableSpan(int producer_key, int from, TupleSpan wire,
                        TupleSpan decoded, size_t enc_bytes, int consumer,
                        size_t port);
  /// Span flavor of EmitRemoteReliable for one emitted batch: the
  /// suppressed prefix is dropped by emission index, the rest makes one
  /// shared round trip and one SendReliableSpan per remote edge.
  void EmitRemoteReliableSpan(int child, TupleSpan batch);
  /// How many leading tuples of \p op's just-emitted \p n-tuple batch fall
  /// inside its replay-suppression window (a prefix: indices increase).
  size_t SuppressedPrefix(int op, size_t n);
  /// Receiving side of an acked edge: acks the sender buffer, discards
  /// duplicates, applies in sequence order (log + push).
  void DeliverReliable(const EdgeKey& key, uint64_t seq, const Tuple& tuple,
                       size_t bytes, bool account);
  /// Executes one due retransmission: back through the channel, or directly
  /// when escalated / migration-collapsed.
  void ResendEntry(const RecoveryCoordinator::RetxItem& item);
  /// Serializes every (changed) operator state into the checkpoint store.
  void DoCheckpoint();
  /// Recovery flavor of a host kill: rebuild the dead host's operators on a
  /// survivor from the last checkpoint and replay their delivery logs.
  void MigrateHost(int host);
  // Shared migration sequence (MigrateHost / MigratePartition /
  // MigrateStage all run exactly these four phases over a topo-ordered id
  // list; only who re-homes which partitions differs between callers).
  /// Phase 1: fold each op's work into the host that actually ran it and
  /// arm replay suppression for outputs already published since the last
  /// checkpoint.
  void FoldAndSuppress(const std::vector<int>& migrated);
  /// Phase 2: rebuild each op on \p target from its last snapshot. Returns
  /// the checkpoint bytes restored (the migration's state-transfer size).
  uint64_t RebuildAndRestore(const std::vector<int>& migrated, int target);
  /// Phase 3: rewire the replacements in exactly Build's per-producer order.
  void RewireMigrated(const std::vector<int>& migrated);
  /// Phase 4: replay each op's post-snapshot delivery suffix with side
  /// effects muted.
  void ReplayDeliveryLogs(const std::vector<int>& migrated, int target);
  /// Bumps a counter in the per-host `checkpoint#<host>` telemetry scope.
  void BumpCheckpointStat(int host, const StatDef& def, uint64_t n);
  /// Bumps a counter in the sender-side `channel#<from>-><to>` scope.
  void BumpChannelStat(int from_host, int to_host, const StatDef& def);

  // --- Overload control (dist/overload.h) ---
  /// Live model-cycle total charged to \p host: its ledger row plus the
  /// live (unfolded) stats of every operator instance currently homed on
  /// it, priced with cost_params_. The budget guard's currency.
  double ModelCyclesNow(int host) const;
  /// Epoch hook for the overload controller: closes/opens budget epochs,
  /// executes proposed skew moves, and drains defer queues.
  void OverloadOnTime(uint64_t time);
  /// Re-admits deferred tuples on every host while budgets allow.
  void DrainDeferredQueues();
  /// Routes one tuple that already passed admission (fresh partition
  /// resolution — a skew move may have re-homed it while parked).
  void RouteAdmitted(const std::string& source, const Tuple& tuple);
  /// Shared tail of PushSource/RouteAdmitted: capture accounting plus the
  /// per-edge delivery loop for partition \p p on \p src_host.
  void DeliverSource(const std::string& source, int p, int src_host,
                     const Tuple& tuple);
  /// Batched route of one slice: buckets it by partition and delivers each
  /// bucket as a span to every consumer edge of its partition.
  void RouteSlice(const std::vector<std::vector<Edge>>& partitions,
                  const std::vector<int>& hosts, TupleSpan slice);
  /// True when \p tuple's source time exceeds every time observed so far
  /// (or is the first one): the epoch hooks may act before it routes.
  bool AdvancesSourceTime(const Tuple& tuple) const;
  /// Columnar-mode delivery of one per-partition bucket (already converted
  /// into col_bucket_scratch_): local consumers borrow the columns, remote
  /// edges encode them once and push the re-columnarized decode.
  void DeliverBucketColumns(const std::vector<Edge>& edges, size_t rows,
                            int src_host);
  /// Validates and prices a proposed hot-partition move, then executes it
  /// through MigratePartition or records it advice-only.
  void ExecuteSkewMove(const SkewMove& move);
  /// Migrates every operator of source partition \p partition onto
  /// \p target via the recovery machinery (checkpoint restore + delivery-log
  /// replay, like MigrateHost). Returns false when recovery is not active.
  /// \p moved_bytes (optional) receives the restored state size.
  bool MigratePartition(int partition, int target,
                        uint64_t* moved_bytes = nullptr);
  /// Binds the controller's live Horvitz–Thompson weight to the first
  /// stateful operator downstream of each source (recording inexact reasons
  /// for operators that cannot consume it).
  void BindShedWeights();
  /// Re-binds the shed weight on a rebuilt (migrated) instance.
  void RebindShedWeight(int id);

  // --- Adaptive placement (dist/adaptive.h) ---
  /// Decomposes the plan into movable stages (connected components of
  /// same-host operators over local edges) and the cross-stage / intake
  /// edges the controller measures; installs them on the controller.
  void BuildAdaptiveTopology();
  /// Assembles the epoch-boundary snapshot of cumulative counters.
  AdaptiveSnapshot TakeAdaptiveSnapshot(uint64_t eid);
  /// Epoch hook: snapshots, lets the controller decide, and executes any
  /// resulting stage move or rollback.
  void AdaptiveOnTime(uint64_t time);
  /// Executes a controller action: MigrateStage when the recovery machinery
  /// and a live target exist, advice-only otherwise.
  void ExecuteAdaptiveAction(const AdaptiveAction& action);
  /// Migrates every operator of \p stage onto \p target via the recovery
  /// machinery (same four phases as MigrateHost). Returns false when
  /// nothing needed to move; \p moved_bytes gets the restored state size.
  bool MigrateStage(const AdaptiveStage& stage, int target,
                    uint64_t* moved_bytes);

  /// Kills \p host now. Lossy path: records window invalidations, folds its
  /// ledger, finishes downstream ports it feeds, and (if the plan allows)
  /// repartitions over the survivors. Recovery path: MigrateHost. Fails with
  /// kRuntimeError when \p host is the last survivor — a cluster with no
  /// hosts cannot execute anything, so the kill is refused rather than
  /// leaving an empty-survivor repartition behind.
  Status KillHost(int host);
  /// Applies one due membership event (partition / heal / rejoin) — called
  /// from ObserveSourceTime before the retransmit scan and before any kill
  /// due at the same boundary.
  void ApplyMembershipEvent(const MembershipEvent& event);
  /// Re-admits \p host at epoch \p epoch — the reverse of KillHost: marks it
  /// alive, consults the advisor/recost projection for which partitions move
  /// back, and migrates their state over the recovery machinery, guarded by
  /// the hysteresis/cooldown rules so rejoin storms can't thrash. Hosts
  /// beyond the configured cluster grow it (elastic scale-out).
  void RejoinHost(int host, uint64_t epoch);
  /// Picks the partitions to move back to a rejoining host: its build-time
  /// partitions when it had any, else the recost-projected best peel off the
  /// bottleneck host (elastic scale-out). Empty when nothing should move.
  std::vector<int> RejoinPartitions(int host) const;
  /// Rebuilds the partitioner over the surviving partitions (lossy path).
  void Repartition();
  /// Source-time hook: drains channel queues at epoch boundaries, advances
  /// the recovery epoch (retransmit scan + due checkpoints), and executes
  /// kills that have come due.
  void ObserveSourceTime(const Tuple& tuple);

  const QueryGraph* graph_;
  const DistPlan* plan_;
  ClusterConfig config_;
  std::unique_ptr<StreamPartitioner> partitioner_;
  /// Operator instances indexed by plan op id (null for sources; replaced
  /// in place by migration).
  std::vector<OperatorPtr> instances_;
  /// Current host of each plan op (build placement; migration re-homes).
  std::vector<int> op_host_;
  /// Routing: source stream name -> per-partition consumer edges.
  std::map<std::string, std::vector<std::vector<Edge>>> routing_;
  /// Host of each source partition, per stream (migration re-homes).
  std::map<std::string, std::vector<int>> partition_hosts_;
  /// Scratch per-partition buckets reused across PushSourceBatch calls:
  /// the first bucket_fill_[p] slots of bucket_scratch_[p] are live, and
  /// slots past the fill keep their storage for the next call.
  std::vector<TupleBatch> bucket_scratch_;
  std::vector<size_t> bucket_fill_;
  /// Exec mode PushSourceBatch drives (set_exec_mode; kBatch default).
  ExecMode exec_mode_ = ExecMode::kBatch;
  /// Columnar-mode scratch: per-bucket column batch, its identity selection,
  /// and the re-columnarized decode of a cross-host bucket.
  ColumnBatch col_bucket_scratch_;
  ColumnBatch col_remote_scratch_;
  SelectionVector col_sel_scratch_;
  /// One telemetry registry per simulated host (the registries are
  /// single-writer: the whole simulation runs on one thread, and scope
  /// names carry the plan op id so instances never collide).
  std::vector<std::unique_ptr<StatsRegistry>> host_stats_;
  ClusterRunResult result_;
  bool telemetry_enabled_ = true;
  bool built_ = false;
  bool finished_ = false;

  // --- Fault injection (all empty/null on the healthy path) ---
  std::unique_ptr<FaultController> faults_;
  /// Same-host edges per producer id (wiring + migration rewiring).
  std::map<int, std::vector<Edge>> local_edges_;
  /// Cross-host edges per producer id.
  std::map<int, std::vector<Edge>> remote_edges_;
  /// Plan sink ids (result sinks re-attach after migration).
  std::vector<int> sink_ids_;
  /// Shared source schema and partition set Build resolved (for rebuilding
  /// the partitioner over survivors).
  SchemaPtr source_schema_;
  PartitionSet actual_ps_;
  /// Index of the source schema's temporal column (-1: no epoch notion,
  /// kills never trigger).
  int source_time_idx_ = -1;
  /// Largest source time ObserveSourceTime has seen (empty before the
  /// first): PushSourceBatch cuts epoch slices where it advances.
  std::optional<uint64_t> max_source_time_;
  /// Merged partition -> host map across streams (plan placement;
  /// migration re-homes).
  std::vector<int> partition_host_merged_;
  /// Build-time snapshot of partition_host_merged_: a rejoining host's
  /// original partitions are looked up here after migrations re-homed them.
  std::vector<int> partition_host_build_;
  /// Membership lifecycle: telemetry bound lazily on the first applied
  /// event, and the cooldown guard against rejoin storms (two rebalancing
  /// rejoins must sit >= plan.adaptive.cooldown_epochs epochs apart).
  bool membership_telemetry_bound_ = false;
  bool rejoin_seen_ = false;
  uint64_t last_rejoin_epoch_ = 0;
  /// After a repartition: new partitioner index -> original partition.
  /// Empty while the original partitioner is in place.
  std::vector<int> survivor_map_;
  /// Operator ids whose stats were already folded at kill time.
  std::vector<char> stats_folded_;

  // --- Overload control (null when the plan has no budget/shed) ---
  std::unique_ptr<OverloadController> overload_;
  /// Cycle weights budgets are charged in (set_cost_params).
  CpuCostParams cost_params_;
  /// Plan op ids whose instance consumed the shed weight at Build; a
  /// migrated rebuild must re-bind (empty when shedding is unarmed).
  std::vector<char> shed_bound_;

  // --- Adaptive placement (null when the plan has no adapt directive) ---
  std::unique_ptr<AdaptiveController> adaptive_;
  /// Maps each plan op to its stage (-1 for sources); valid after
  /// BuildAdaptiveTopology.
  std::vector<int> adaptive_stage_of_;
  /// How to measure each controller edge: the producing op (cross-stage
  /// edges) or the source partition (intake edges, producer_op < 0).
  struct AdaptiveEdgeSrc {
    int producer_op = -1;
    int partition = -1;
  };
  std::vector<AdaptiveEdgeSrc> adaptive_edge_src_;
  /// Cumulative per-partition intake (counted at source capture), measured
  /// only while adaptive placement is armed.
  std::vector<uint64_t> adaptive_partition_tuples_;
  std::vector<uint64_t> adaptive_partition_bytes_;
  /// Set by any kill/migration/repartition: the next snapshot re-baselines
  /// instead of diffing across the discontinuity.
  bool adaptive_topology_dirty_ = false;

  // --- Lossless recovery (null when checkpoint_interval == 0) ---
  std::unique_ptr<RecoveryCoordinator> recovery_;
  /// True while migration replays delivery logs: local-edge sinks are muted
  /// (each consumer replays its own log) and external sinks rely on
  /// suppression windows.
  bool replaying_ = false;

  /// Opt-in trace events (set_trace_events_enabled); registries created for
  /// elastic newcomers inherit it.
  bool trace_events_enabled_ = false;
};

}  // namespace streampart
