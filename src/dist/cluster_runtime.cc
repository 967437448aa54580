#include "dist/cluster_runtime.h"

#include <algorithm>
#include <optional>

#include "exec/sketch_op.h"
#include "metrics/stats.h"
#include "optimizer/recost.h"
#include "partition/advisor.h"
#include "types/serde.h"

namespace streampart {

namespace {
/// Instantiates the sketch-leg operator for a plan node annotated with a
/// SketchRole (the optimizer keeps such nodes as kQuery so only this factory
/// dispatches on the role). Returns nullptr for unannotated nodes.
OperatorPtr MaybeMakeSketchInstance(const DistOperator& op) {
  if (op.sketch_role == SketchRole::kNone) return nullptr;
  SketchSpec spec;
  spec.eps = op.sketch_eps;
  spec.confidence = op.sketch_confidence;
  spec.seed = op.sketch_seed;
  if (op.sketch_role == SketchRole::kHost) {
    return std::make_unique<SketchOp>(op.query, spec);
  }
  return std::make_unique<SketchMergeOp>(op.query, spec);
}
}  // namespace

Result<const HostMetrics*> ClusterRunResult::CheckedHost(int host) const {
  if (host < 0 || host >= static_cast<int>(hosts.size())) {
    return Status::InvalidArgument("host ", host, " out of range (cluster has ",
                                   hosts.size(), " hosts)");
  }
  for (int dead : dead_hosts) {
    if (dead == host) {
      return Status::RuntimeError(
          "host ", host,
          " was killed by fault injection; its ledger row stops at the kill");
    }
  }
  return &hosts[host];
}

const HostMetrics& ClusterRunResult::aggregator(int aggregator_host) const {
  Result<const HostMetrics*> checked = CheckedHost(aggregator_host);
  SP_CHECK(checked.ok()) << "aggregator unavailable: "
                         << checked.status().ToString();
  return **checked;
}

double ClusterRunResult::LeafCpuSeconds(const CpuCostParams& params,
                                        int aggregator_host) const {
  double total = 0;
  for (size_t h = 0; h < hosts.size(); ++h) {
    if (static_cast<int>(h) == aggregator_host) continue;
    total += HostCpuSeconds(hosts[h], params);
  }
  return total;
}

ClusterRuntime::ClusterRuntime(const QueryGraph* graph, const DistPlan* plan,
                               const ClusterConfig& config)
    : graph_(graph), plan_(plan), config_(config) {
  result_.hosts.resize(config.num_hosts);
  host_stats_.reserve(config.num_hosts);
  for (int h = 0; h < config.num_hosts; ++h) {
    host_stats_.push_back(std::make_unique<StatsRegistry>());
  }
}

void ClusterRuntime::set_trace_events_enabled(bool enabled) {
  trace_events_enabled_ = enabled;
  for (auto& reg : host_stats_) reg->set_events_enabled(enabled);
}

void ClusterRuntime::set_fault_plan(FaultPlan plan) {
  SP_CHECK(!built_) << "set_fault_plan must precede Build";
  recovery_.reset();
  if (plan.checkpoint_interval > 0) {
    // Lossless recovery is independent of the fault machinery proper: a plan
    // that only sets `ckpt` runs checkpoints and acked edges with no kills
    // and no degraded channels (the differential baseline for the recovery
    // battery).
    RecoveryConfig rc;
    rc.checkpoint_interval = plan.checkpoint_interval;
    rc.epoch_width = plan.epoch_width;
    recovery_ = std::make_unique<RecoveryCoordinator>(rc);
  }
  overload_.reset();
  if (plan.overload_enabled()) {
    // Budget/shed directives arm overload control even when the plan
    // injects no faults (empty() below); a budget-only plan runs with an
    // overload controller and no fault controller.
    overload_ = std::make_unique<OverloadController>(plan, config_.num_hosts);
  }
  adaptive_.reset();
  if (plan.adaptive.enabled) {
    // The adapt directive arms feedback-driven placement on its own; with
    // no checkpoint_interval its moves degrade to advice-only decisions.
    adaptive_ = std::make_unique<AdaptiveController>(plan, config_.num_hosts);
  }
  if (plan.empty()) {
    // An empty plan is inert by constraint: no controller exists, so every
    // execution path is byte-identical to a run without the call.
    faults_.reset();
    return;
  }
  faults_ =
      std::make_unique<FaultController>(std::move(plan), config_.num_hosts);
}

void ClusterRuntime::AccountTransfer(int from_host, int to_host,
                                     const Tuple& tuple) {
  AccountTransferBatch(from_host, to_host, 1, EncodedTupleSize(tuple));
}

void ClusterRuntime::AccountTransferBatch(int from_host, int to_host,
                                          uint64_t n, size_t bytes) {
  result_.hosts[from_host].net_tuples_out += n;
  result_.hosts[from_host].net_bytes_out += bytes;
  result_.hosts[to_host].net_tuples_in += n;
  result_.hosts[to_host].net_bytes_in += bytes;
}

int ClusterRuntime::ProducerHost(const EdgeKey& key) const {
  if (key.producer >= 0) return op_host_[key.producer];
  int p = -key.producer - 1;
  return partition_host_merged_[p];
}

bool ClusterRuntime::SpanRoute() const {
  if (exec_mode_ == ExecMode::kTuple || overload_active() ||
      adaptive_active()) {
    return false;
  }
  if (!faults_active()) return true;
  // A live fault plan with no channel and no membership directive holds
  // kills only; under recovery those act at epoch boundaries too.
  const FaultPlan& plan = faults_->plan();
  return recovery_active() && plan.channels.empty() &&
         !plan.membership_enabled();
}

OperatorPtr ClusterRuntime::MakeInstance(int id) {
  const DistOperator& op = plan_->op(id);
  if (op.kind == DistOpKind::kMerge) {
    return std::make_unique<MergeOp>(op.stream_name, op.schema,
                                     op.children.size());
  }
  if (OperatorPtr sketch = MaybeMakeSketchInstance(op)) return sketch;
  auto made = MakeOperator(op.query, &graph_->udaf_registry());
  SP_CHECK(made.ok()) << "rebuilding operator " << id
                      << " for migration failed: " << made.status().ToString();
  return std::move(*made);
}

void ClusterRuntime::BindInstanceTelemetry(int id) {
  if (!telemetry_enabled_) return;
  // Scope names carry the plan op id so replicated operators (one per
  // partition) stay distinguishable within a host, and a migrated replica
  // never collides with the target's own operators.
  instances_[id]->BindTelemetry(
      host_stats_[op_host_[id]].get(),
      instances_[id]->label() + "#" + std::to_string(id));
}

Status ClusterRuntime::Build(const PartitionSet& actual_ps) {
  if (built_) return Status::Internal("ClusterRuntime::Build called twice");
  built_ = true;

  instances_.resize(plan_->size());
  op_host_.assign(plan_->size(), 0);

  // Pass 1: instantiate operators (sources have no instance).
  for (int id : plan_->TopoOrder()) {
    const DistOperator& op = plan_->op(id);
    op_host_[id] = op.host;
    switch (op.kind) {
      case DistOpKind::kSource: {
        auto& hosts = partition_hosts_[op.stream_name];
        if (hosts.size() <= static_cast<size_t>(op.partition)) {
          hosts.resize(op.partition + 1, 0);
        }
        hosts[op.partition] = op.host;
        auto& edges = routing_[op.stream_name];
        if (edges.size() <= static_cast<size_t>(op.partition)) {
          edges.resize(op.partition + 1);
        }
        break;
      }
      case DistOpKind::kQuery: {
        if (OperatorPtr sketch = MaybeMakeSketchInstance(op)) {
          instances_[id] = std::move(sketch);
          break;
        }
        SP_ASSIGN_OR_RETURN(
            OperatorPtr instance,
            MakeOperator(op.query, &graph_->udaf_registry()));
        instances_[id] = std::move(instance);
        break;
      }
      case DistOpKind::kMerge: {
        instances_[id] = std::make_unique<MergeOp>(
            op.stream_name, op.schema, op.children.size());
        break;
      }
    }
  }

  // Bind each instance to its host's telemetry registry.
  if (telemetry_enabled_) {
    for (int id : plan_->TopoOrder()) {
      if (instances_[id] != nullptr) BindInstanceTelemetry(id);
    }
  }

  // The partitioner routes over the shared source schema: all partitioned
  // streams use the same partitioning (paper §4's simplifying assumption).
  // Pick the schema deterministically — partition_hosts_ is an ordered map,
  // so this is the lexicographically smallest stream name — and verify the
  // assumption instead of trusting it.
  SchemaPtr source_schema;
  std::string source_schema_stream;
  for (const auto& [name, hosts] : partition_hosts_) {
    SP_ASSIGN_OR_RETURN(SchemaPtr schema, graph_->GetStreamSchema(name));
    if (source_schema == nullptr) {
      source_schema = schema;
      source_schema_stream = name;
    } else if (!source_schema->Equals(*schema)) {
      return Status::InvalidArgument(
          "partitioned sources disagree on schema: stream '", name,
          "' differs from '", source_schema_stream, "'");
    }
  }
  if (source_schema != nullptr) {
    int num_parts = 0;
    for (const auto& [name, hosts] : partition_hosts_) {
      num_parts = std::max(num_parts, static_cast<int>(hosts.size()));
    }
    SP_ASSIGN_OR_RETURN(partitioner_,
                        MakePartitioner(actual_ps, source_schema, num_parts));
    // Retained for fault recovery: rebuilding the partitioner over
    // surviving partitions needs the schema, the current set, the merged
    // partition placement, and the epoch column kills key off.
    source_schema_ = source_schema;
    actual_ps_ = actual_ps;
    // All streams must agree on partition -> host placement, or the merged
    // map (and Repartition()'s survivor computation over it) would be wrong
    // for every stream but the last. Verify, like the shared-schema check
    // above, instead of letting the last stream win silently.
    partition_host_merged_.assign(num_parts, -1);
    for (const auto& [name, hosts] : partition_hosts_) {
      for (size_t p = 0; p < hosts.size(); ++p) {
        if (partition_host_merged_[p] < 0) {
          partition_host_merged_[p] = hosts[p];
        } else if (partition_host_merged_[p] != hosts[p]) {
          return Status::InvalidArgument(
              "partitioned sources disagree on placement: stream '", name,
              "' puts partition ", p, " on host ", hosts[p],
              " but another stream placed it on host ",
              partition_host_merged_[p]);
        }
      }
    }
    std::vector<size_t> temporal = source_schema->TemporalFieldIndexes();
    source_time_idx_ =
        temporal.empty() ? -1 : static_cast<int>(temporal.front());
  }
  // Snapshot the build-time placement before any kill or skew move re-homes
  // partitions: a rejoining host reclaims exactly the partitions it owned
  // when the cluster was healthy.
  partition_host_build_ = partition_host_merged_;
  stats_folded_.assign(plan_->size(), 0);

  // Pass 2: collect edges per producer id. Cross-host edges are grouped so
  // each producer output is serialized and decoded exactly once no matter
  // how many remote consumers it feeds; traffic is still accounted per edge.
  for (int id : plan_->TopoOrder()) {
    const DistOperator& op = plan_->op(id);
    if (op.kind == DistOpKind::kSource) continue;
    for (size_t port = 0; port < op.children.size(); ++port) {
      int child = op.children[port];
      const DistOperator& producer = plan_->op(child);
      if (producer.kind == DistOpKind::kSource) {
        routing_[producer.stream_name][producer.partition].push_back(
            Edge{id, port});
        continue;
      }
      if (producer.host == op.host) {
        local_edges_[child].push_back(Edge{id, port});
      } else {
        remote_edges_[child].push_back(Edge{id, port});
      }
    }
  }
  // Pass 2b: wire each producer — local edges, then remote finish hooks,
  // then the (single, shared) remote sink. MigrateHost repeats exactly this
  // sequence for rebuilt instances so migrated wiring is order-identical.
  for (int child : plan_->TopoOrder()) {
    if (instances_[child] == nullptr) continue;
    if (auto it = local_edges_.find(child); it != local_edges_.end()) {
      for (const Edge& e : it->second) WireLocalEdge(child, e.consumer, e.port);
    }
    if (auto it = remote_edges_.find(child); it != remote_edges_.end()) {
      for (const Edge& e : it->second) {
        AddRemoteFinishHook(child, e.consumer, e.port);
      }
      AttachRemoteSinks(child);
    }
  }

  // Pass 3: sinks collect plan outputs (suppressed and accounted when the
  // sink's host died).
  for (int id : plan_->Sinks()) {
    if (instances_[id] == nullptr) continue;
    sink_ids_.push_back(id);
    AttachResultSink(id);
  }

  if (overload_ != nullptr) {
    SP_RETURN_NOT_OK(overload_->Validate());
    overload_->set_cycles_probe(
        [this](int host) { return ModelCyclesNow(host); });
    if (telemetry_enabled_) {
      overload_->set_scope_maker([this](int host) {
        return host_stats_[host]->GetScope("overload#" +
                                           std::to_string(host));
      });
    }
    BindShedWeights();
  }

  if (adaptive_ != nullptr) {
    SP_RETURN_NOT_OK(adaptive_->Validate());
    // Re-costing uses the same cycle currency as budget enforcement and the
    // ledger; migrations are priced at the checkpoint byte rate like the
    // skew detector's partition moves.
    adaptive_->set_cost_weights(
        RecostWeights{cost_params_.cycles_per_remote_tuple,
                      cost_params_.cycles_per_remote_byte},
        cost_params_.cycles_per_checkpoint_byte);
    if (telemetry_enabled_) {
      // The controller is a cluster-wide decision maker, not a per-host one:
      // its instruments live in host 0's registry under a single scope.
      adaptive_->set_scope_maker(
          [this]() { return host_stats_[0]->GetScope("adaptive"); });
    }
    BuildAdaptiveTopology();
  }
  return Status::OK();
}

void ClusterRuntime::BindShedWeights() {
  shed_bound_.assign(plan_->size(), 0);
  if (!overload_->shed_armed()) return;
  // Walk downstream from every source through weight-transparent operators
  // (merges and stateless select/project) to the FIRST stateful operator on
  // each path — the shed point's weight consumer. Binding only the first
  // one is essential: a super-aggregate consumes already-scaled partials
  // and must never scale again.
  std::vector<char> visited(plan_->size(), 0);
  std::deque<int> queue;
  for (int id : plan_->TopoOrder()) {
    if (plan_->op(id).kind != DistOpKind::kSource) continue;
    for (int c : plan_->Consumers(id)) {
      if (!visited[c]) {
        visited[c] = 1;
        queue.push_back(c);
      }
    }
  }
  while (!queue.empty()) {
    int id = queue.front();
    queue.pop_front();
    const DistOperator& op = plan_->op(id);
    bool pass_through =
        op.kind == DistOpKind::kMerge ||
        (op.kind == DistOpKind::kQuery && op.query != nullptr &&
         op.query->kind == QueryKind::kSelectProject);
    if (pass_through) {
      for (int c : plan_->Consumers(id)) {
        if (!visited[c]) {
          visited[c] = 1;
          queue.push_back(c);
        }
      }
      continue;
    }
    Operator* inst = instances_[id].get();
    if (inst == nullptr) continue;
    if (inst->BindShedWeight(overload_->shed_weight())) {
      shed_bound_[id] = 1;
      if (!inst->ShedSampleable()) {
        overload_->AddInexactReason(
            inst->label() +
            ": non-sampleable aggregate in the shed path (no computed "
            "bound)");
      }
    } else if (!inst->ShedSampleable()) {
      overload_->AddInexactReason(
          inst->label() + ": shed tuples break pairings (no computed bound)");
    } else {
      overload_->AddInexactReason(
          inst->label() + ": cannot consume Horvitz-Thompson weights");
    }
    // Stop here either way: everything downstream sees partials.
  }
}

void ClusterRuntime::RebindShedWeight(int id) {
  if (overload_ == nullptr || shed_bound_.empty() || !shed_bound_[id]) return;
  instances_[id]->BindShedWeight(overload_->shed_weight());
}

void ClusterRuntime::BuildAdaptiveTopology() {
  const int n = static_cast<int>(plan_->size());
  // Union-find over build-time local edges: a stage is a maximal group of
  // same-host operators wired by direct links, so it can only move as a
  // unit. Cross-stage edges are remote by construction (local edges connect
  // same-host ops, and connectivity is transitive), so every stage-boundary
  // delivery already re-resolves hosts at delivery time.
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  auto find = [&parent](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& [child, edges] : local_edges_) {
    for (const Edge& e : edges) parent[find(child)] = find(e.consumer);
  }
  adaptive_stage_of_.assign(n, -1);
  std::vector<int> root_stage(n, -1);
  std::vector<AdaptiveStage> stages;
  for (int id : plan_->TopoOrder()) {
    if (instances_[id] == nullptr) continue;  // sources are not movable
    int root = find(id);
    if (root_stage[root] < 0) {
      root_stage[root] = static_cast<int>(stages.size());
      AdaptiveStage stage;
      stage.id = root_stage[root];
      stage.label = instances_[id]->label();
      stages.push_back(std::move(stage));
    }
    adaptive_stage_of_[id] = root_stage[root];
    stages[root_stage[root]].ops.push_back(id);
  }

  // Measured edges: capture intake into each consuming stage (one edge per
  // consumer — every consumer receives its own copy of the partition's
  // traffic), plus every cross-stage operator edge.
  std::vector<AdaptiveEdge> edges;
  adaptive_edge_src_.clear();
  for (const auto& [name, partitions] : routing_) {
    for (size_t p = 0; p < partitions.size(); ++p) {
      for (const Edge& e : partitions[p]) {
        AdaptiveEdge ae;
        ae.consumer_stage = adaptive_stage_of_[e.consumer];
        ae.source_partition = static_cast<int>(p);
        edges.push_back(ae);
        adaptive_edge_src_.push_back({-1, static_cast<int>(p)});
      }
    }
  }
  for (const auto& [child, redges] : remote_edges_) {
    for (const Edge& e : redges) {
      AdaptiveEdge ae;
      ae.producer_stage = adaptive_stage_of_[child];
      ae.consumer_stage = adaptive_stage_of_[e.consumer];
      edges.push_back(ae);
      adaptive_edge_src_.push_back({child, -1});
    }
  }
  adaptive_partition_tuples_.assign(partition_host_merged_.size(), 0);
  adaptive_partition_bytes_.assign(partition_host_merged_.size(), 0);
  adaptive_->SetTopology(std::move(stages), std::move(edges));
}

AdaptiveSnapshot ClusterRuntime::TakeAdaptiveSnapshot(uint64_t eid) {
  AdaptiveSnapshot snap;
  snap.eid = eid;
  snap.topology_changed = adaptive_topology_dirty_;
  adaptive_topology_dirty_ = false;
  snap.host_cycles.resize(config_.num_hosts);
  for (int h = 0; h < config_.num_hosts; ++h) {
    snap.host_cycles[h] = ModelCyclesNow(h);
  }
  const std::vector<AdaptiveStage>& stages = adaptive_->stages();
  snap.stage_host.resize(stages.size());
  snap.stage_cycles.resize(stages.size());
  snap.stage_state_bytes.resize(stages.size());
  for (const AdaptiveStage& stage : stages) {
    snap.stage_host[stage.id] = op_host_[stage.ops.front()];
    // Per-stage compute, priced like ModelCyclesNow but over this stage's
    // live instances only (no capture/network/checkpoint terms — those
    // belong to hosts, not stages).
    HostMetrics m;
    uint64_t state_bytes = 0;
    for (int id : stage.ops) {
      if (instances_[id] == nullptr) continue;
      if (plan_->op(id).kind == DistOpKind::kMerge) {
        m.merge_ops += instances_[id]->stats();
      } else {
        m.ops += instances_[id]->stats();
      }
      if (recovery_active() && recovery_->HasBlob(id)) {
        state_bytes += recovery_->BlobStoredBytes(id);
      }
    }
    snap.stage_cycles[stage.id] = HostCycles(m, cost_params_);
    snap.stage_state_bytes[stage.id] = state_bytes;
  }
  const std::vector<AdaptiveEdge>& edges = adaptive_->edges();
  snap.edge_from_host.resize(edges.size());
  snap.edge_tuples.resize(edges.size());
  snap.edge_bytes.resize(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    const AdaptiveEdgeSrc& src = adaptive_edge_src_[i];
    if (src.producer_op >= 0) {
      const OpStats& st = instances_[src.producer_op]->stats();
      snap.edge_from_host[i] = op_host_[src.producer_op];
      snap.edge_tuples[i] = static_cast<double>(st.tuples_out);
      snap.edge_bytes[i] = static_cast<double>(st.bytes_out);
    } else {
      snap.edge_from_host[i] = partition_host_merged_[src.partition];
      snap.edge_tuples[i] =
          static_cast<double>(adaptive_partition_tuples_[src.partition]);
      snap.edge_bytes[i] =
          static_cast<double>(adaptive_partition_bytes_[src.partition]);
    }
  }
  double tuples_in = 0, tuples_out = 0;
  for (const OperatorPtr& inst : instances_) {
    if (inst == nullptr) continue;
    tuples_in += static_cast<double>(inst->stats().tuples_in);
    tuples_out += static_cast<double>(inst->stats().tuples_out);
  }
  snap.ops_tuples_in = tuples_in;
  snap.ops_tuples_out = tuples_out;
  snap.source_tuples = static_cast<double>(result_.source_tuples);
  snap.host_alive.assign(config_.num_hosts, true);
  if (faults_ != nullptr) {
    for (int h = 0; h < config_.num_hosts; ++h) {
      snap.host_alive[h] = faults_->host_alive(h);
    }
  }
  return snap;
}

void ClusterRuntime::AdaptiveOnTime(uint64_t time) {
  uint64_t eid = time / adaptive_->epoch_width();
  if (!adaptive_->EpochBoundary(eid)) return;
  AdaptiveSnapshot snap = TakeAdaptiveSnapshot(eid);
  AdaptiveAction action = adaptive_->OnEpoch(snap);
  if (action.kind != AdaptiveAction::Kind::kNone) {
    ExecuteAdaptiveAction(action);
  }
}

void ClusterRuntime::ExecuteAdaptiveAction(const AdaptiveAction& action) {
  const bool target_alive =
      faults_ == nullptr || faults_->host_alive(action.to_host);
  if (!recovery_active() || !target_alive) {
    // No state-migration machinery (or no live target): record the advice
    // instead of moving blind — a lossy move would invalidate open windows,
    // which is worse than running a stale placement. Mirrors
    // ExecuteSkewMove's advice-only degradation.
    adaptive_->RecordMoveUnavailable(action);
    return;
  }
  const AdaptiveStage& stage = adaptive_->stages()[action.stage];
  uint64_t moved_bytes = 0;
  if (MigrateStage(stage, action.to_host, &moved_bytes)) {
    adaptive_->RecordExecuted(action, moved_bytes);
    // The next snapshot diffs across the migration; re-baseline instead.
    adaptive_topology_dirty_ = true;
  } else {
    adaptive_->RecordMoveUnavailable(action);
  }
}

double ClusterRuntime::ModelCyclesNow(int host) const {
  // The host's ledger row carries capture/network/checkpoint counters (and
  // operator work folded at kill/migration time); live instances still hold
  // their own stats until FinishSources folds them.
  HostMetrics m = result_.hosts[host];
  for (size_t id = 0; id < instances_.size(); ++id) {
    if (instances_[id] == nullptr || op_host_[id] != host) continue;
    if (!stats_folded_.empty() && stats_folded_[id]) continue;
    if (plan_->op(static_cast<int>(id)).kind == DistOpKind::kMerge) {
      m.merge_ops += instances_[id]->stats();
    } else {
      m.ops += instances_[id]->stats();
    }
  }
  return HostCycles(m, cost_params_);
}

void ClusterRuntime::WireLocalEdge(int producer, int consumer, size_t port) {
  Operator* prod = instances_[producer].get();
  if (!recovery_active()) {
    prod->AddConsumer(instances_[consumer].get(), port);
    return;
  }
  // Under recovery local edges deliver through a logging sink: every applied
  // tuple lands in the consumer's delivery log (the replay source after a
  // migration), and replay itself mutes the edge — the consumer replays its
  // own log, so producer re-emissions must not double-deliver. Local edges
  // connect same-host operators, so both endpoints always migrate together
  // and the edge itself can never lose a tuple.
  ClusterRuntime* self = this;
  auto per_tuple = [self, consumer, port](const Tuple& t) {
    if (self->replaying_) return;
    self->recovery_->LogDelivery(consumer, port, t);
    self->instances_[consumer]->Push(port, t);
  };
  if (SpanRoute()) {
    prod->AddSink(per_tuple, [self, consumer, port](TupleSpan batch) {
      if (self->replaying_) return;
      self->recovery_->LogDeliveries(consumer, port, batch);
      self->instances_[consumer]->PushBatch(port, batch);
    });
  } else {
    prod->AddSink(per_tuple);
  }
  prod->AddFinishHook([self, consumer, port]() {
    self->instances_[consumer]->Finish(port);
  });
}

void ClusterRuntime::AddRemoteFinishHook(int producer, int consumer,
                                         size_t port) {
  Operator* prod = instances_[producer].get();
  ClusterRuntime* self = this;
  if (recovery_active()) {
    prod->AddFinishHook([self, producer, consumer, port]() {
      // Deliver anything a degraded channel still holds, then escalate
      // whatever is still unacked (dropped in flight), so the port sees
      // every tuple before end-of-stream.
      int from = self->op_host_[producer];
      int to = self->op_host_[consumer];
      if (self->faults_active()) self->faults_->FlushChannel(from, to);
      self->recovery_->DrainEdgePending(
          EdgeKey{producer, consumer, port},
          [self](const RecoveryCoordinator::RetxItem& item) {
            self->ResendEntry(item);
          });
      self->instances_[consumer]->Finish(port);
    });
    return;
  }
  int from = plan_->op(producer).host;
  int to = plan_->op(consumer).host;
  prod->AddFinishHook([self, consumer, port, from, to]() {
    // Deliver anything a degraded channel still holds before the port sees
    // end-of-stream; otherwise held tuples arrive late.
    if (self->faults_active()) self->faults_->FlushChannel(from, to);
    self->instances_[consumer]->Finish(port);
  });
}

void ClusterRuntime::AttachRemoteSinks(int child) {
  Operator* prod = instances_[child].get();
  ClusterRuntime* self = this;
  if (recovery_active()) {
    auto per_tuple = [self, child](const Tuple& t) {
      self->EmitRemoteReliable(child, t);
    };
    if (SpanRoute()) {
      // Whole emitted batches cross as spans, edge by edge; suppression is
      // still decided per emission index.
      prod->AddSink(per_tuple, [self, child](TupleSpan batch) {
        self->EmitRemoteReliableSpan(child, batch);
      });
    } else {
      // A per-send controller (channel draws, partition refusals) is armed:
      // keep tuple-major order, so each tuple draws the same channel fault
      // on every execution path. EmitBatch loops this sink per tuple.
      prod->AddSink(per_tuple);
    }
    return;
  }
  const std::vector<Edge>* shared_edges = &remote_edges_[child];
  int from = plan_->op(child).host;
  prod->AddSink(
      [self, from, shared_edges](const Tuple& t) {
        if (self->faults_active()) {
          if (!self->faults_->host_alive(from)) {
            // The producer's host died; its flush output is suppressed at
            // the host boundary and accounted, not silently vanished.
            for (size_t i = 0; i < shared_edges->size(); ++i) {
              self->faults_->CountFlushSuppressed();
            }
            return;
          }
          auto faulty_decoded = RoundTripTuple(t);
          SP_CHECK(faulty_decoded.ok()) << faulty_decoded.status().ToString();
          for (const Edge& e : *shared_edges) {
            self->DeliverRemoteFaulty(from, t, *faulty_decoded, e.consumer,
                                      e.port);
          }
          return;
        }
        auto decoded = RoundTripTuple(t);
        SP_CHECK(decoded.ok()) << decoded.status().ToString();
        for (const Edge& e : *shared_edges) {
          self->AccountTransfer(from, self->op_host_[e.consumer], t);
          self->instances_[e.consumer]->Push(e.port, *decoded);
        }
      },
      [self, from, shared_edges](TupleSpan batch) {
        if (self->faults_active()) {
          // Under faults the batch fast path degenerates to per-tuple
          // deliveries: kills and channel faults act at tuple granularity,
          // and the per-tuple route keeps both execution paths on the same
          // deterministic fault sequence.
          for (const Tuple& t : batch) {
            if (!self->faults_->host_alive(from)) {
              for (size_t i = 0; i < shared_edges->size(); ++i) {
                self->faults_->CountFlushSuppressed();
              }
              continue;
            }
            auto faulty_decoded = RoundTripTuple(t);
            SP_CHECK(faulty_decoded.ok())
                << faulty_decoded.status().ToString();
            for (const Edge& e : *shared_edges) {
              self->DeliverRemoteFaulty(from, t, *faulty_decoded, e.consumer,
                                        e.port);
            }
          }
          return;
        }
        size_t enc_bytes = 0;
        auto decoded = RoundTripBatch(batch, &enc_bytes);
        SP_CHECK(decoded.ok()) << decoded.status().ToString();
        for (const Edge& e : *shared_edges) {
          self->AccountTransferBatch(from, self->op_host_[e.consumer],
                                     batch.size(), enc_bytes);
          self->instances_[e.consumer]->PushBatch(e.port, *decoded);
        }
      });
}

void ClusterRuntime::AttachResultSink(int id) {
  std::string name = plan_->op(id).stream_name;
  ClusterRuntime* self = this;
  // Resolve the output batch once, at attach time: map nodes are stable, so
  // the sink appends through the pointer instead of a per-tuple map lookup.
  // MakeLedger skips batches that stayed empty, keeping the ledger's
  // lazy-creation shape.
  TupleBatch* out = &result_.outputs[name];
  if (recovery_active()) {
    auto per_tuple = [self, id, out](const Tuple& t) {
      if (self->faults_ != nullptr &&
          !self->faults_->host_alive(self->op_host_[id])) {
        // No survivor existed to migrate onto: like the lossy path, flush
        // output of a dead host is suppressed and accounted.
        self->faults_->CountFlushSuppressed();
        return;
      }
      uint64_t idx = self->instances_[id]->stats().tuples_out;
      if (self->recovery_->Suppress(id, idx)) return;
      out->push_back(t);
    };
    if (!SpanRoute()) {
      instances_[id]->AddSink(per_tuple);
      return;
    }
    // On the span route every kill migrates onto a survivor, so the sink's
    // host is alive.
    instances_[id]->AddSink(per_tuple, [self, id, out](TupleSpan batch) {
      size_t skip = self->SuppressedPrefix(id, batch.size());
      out->insert(out->end(), batch.begin() + skip, batch.end());
    });
    return;
  }
  int sink_host = plan_->op(id).host;
  instances_[id]->AddSink([self, out, sink_host](const Tuple& t) {
    if (self->faults_active() && !self->faults_->host_alive(sink_host)) {
      self->faults_->CountFlushSuppressed();
      return;
    }
    out->push_back(t);
  });
}

FaultChannel* ClusterRuntime::ChannelForPair(int from_host, int to_host) {
  if (faults_ == nullptr || !faults_->active()) return nullptr;
  FaultChannel* channel = faults_->FindChannel(from_host, to_host);
  if (channel != nullptr) return channel;
  // First use of this directed pair: the spec is resolved (and, when a
  // channel is created, its counters bound in the sender's registry)
  // lazily; healthy pairs never materialize a telemetry scope.
  return faults_->ChannelFor(from_host, to_host, [&]() {
    return telemetry_enabled_
               ? host_stats_[from_host]->GetScope(
                     "channel#" + std::to_string(from_host) + "->" +
                     std::to_string(to_host))
               : nullptr;
  });
}

void ClusterRuntime::DeliverRemoteFaulty(int from_host, const Tuple& wire,
                                         const Tuple& decoded, int consumer,
                                         size_t port) {
  if (faults_->PairSevered(from_host, op_host_[consumer])) {
    // Network partition: the send is refused at the sender — the tuple never
    // leaves the host, so neither net accounting nor the channel sees it.
    // On this lossy path the tuple is gone until the heal (reliable edges
    // keep it pending instead).
    faults_->CountPartitionRefused();
    return;
  }
  size_t bytes = EncodedTupleSize(wire);
  // Sender-side accounting happens at send time — the tuple left the host
  // whether or not the channel later drops it. (The healthy path accounts
  // both sides together; under faults the two sides legitimately diverge.)
  result_.hosts[from_host].net_tuples_out += 1;
  result_.hosts[from_host].net_bytes_out += bytes;
  FaultChannel* channel = ChannelForPair(from_host, op_host_[consumer]);
  if (channel == nullptr) {
    ReceiveRemote(decoded, bytes, consumer, port);
    return;
  }
  channel->Send(decoded, [this, bytes, consumer, port](const Tuple& t) {
    return ReceiveRemote(t, bytes, consumer, port);
  });
}

bool ClusterRuntime::ReceiveRemote(const Tuple& tuple, size_t bytes,
                                   int consumer, size_t port) {
  int to_host = op_host_[consumer];
  if (!faults_->host_alive(to_host)) {
    faults_->CountNetTupleLost();
    return false;
  }
  result_.hosts[to_host].net_tuples_in += 1;
  result_.hosts[to_host].net_bytes_in += bytes;
  instances_[consumer]->Push(port, tuple);
  return true;
}

void ClusterRuntime::BumpCheckpointStat(int host, const StatDef& def,
                                        uint64_t n) {
  if (!telemetry_enabled_ || n == 0) return;
  StatsScope* scope =
      host_stats_[host]->GetScope("checkpoint#" + std::to_string(host));
  if (scope == nullptr) return;
  scope->counter(def)->Add(n);
}

void ClusterRuntime::BumpChannelStat(int from_host, int to_host,
                                     const StatDef& def) {
  if (!telemetry_enabled_) return;
  StatsScope* scope = host_stats_[from_host]->GetScope(
      "channel#" + std::to_string(from_host) + "->" +
      std::to_string(to_host));
  if (scope == nullptr) return;
  scope->counter(def)->Inc();
}

void ClusterRuntime::EmitRemoteReliable(int child, const Tuple& t) {
  if (faults_ != nullptr && !faults_->host_alive(op_host_[child])) {
    // No survivor existed to migrate onto; flush output is suppressed at
    // the host boundary like the lossy path.
    for (size_t i = 0; i < remote_edges_[child].size(); ++i) {
      faults_->CountFlushSuppressed();
    }
    return;
  }
  // Replay re-emission: the restored instance reproduces outputs it already
  // published before the kill. Downstream hosts saw them; drop by index.
  uint64_t idx = instances_[child]->stats().tuples_out;
  if (recovery_->Suppress(child, idx)) return;
  int from = op_host_[child];
  auto decoded = RoundTripTuple(t);
  SP_CHECK(decoded.ok()) << decoded.status().ToString();
  for (const Edge& e : remote_edges_[child]) {
    SendReliable(child, from, t, *decoded, e.consumer, e.port);
  }
}

void ClusterRuntime::SendReliable(int producer_key, int from,
                                  const Tuple& wire, const Tuple& decoded,
                                  int consumer, size_t port) {
  EdgeKey key{producer_key, consumer, port};
  int to = op_host_[consumer];
  if (from == to) {
    // A same-host edge (source-local, or collapsed by migration): keep the
    // sequencing — the edge may still have in-flight predecessors from
    // before a collapse, and applies must stay in order — but skip the
    // network and its accounting.
    uint64_t seq = recovery_->RecordSend(key, decoded, 0);
    DeliverReliable(key, seq, decoded, 0, false);
    return;
  }
  size_t bytes = EncodedTupleSize(wire);
  uint64_t seq = recovery_->RecordSend(key, decoded, bytes);
  if (faults_ != nullptr && faults_->PairSevered(from, to)) {
    // Network partition: refused at the sender after sequencing, so the
    // entry stays pending and retransmission redelivers it once the
    // partition heals — the exactly-once contract holds across the heal.
    faults_->CountPartitionRefused();
    return;
  }
  result_.hosts[from].net_tuples_out += 1;
  result_.hosts[from].net_bytes_out += bytes;
  FaultChannel* channel = ChannelForPair(from, to);
  if (channel == nullptr) {
    DeliverReliable(key, seq, decoded, bytes, true);
    return;
  }
  ClusterRuntime* self = this;
  uint64_t cap_bytes = bytes;
  channel->Send(decoded, [self, key, seq, cap_bytes](const Tuple& t) {
    self->DeliverReliable(key, seq, t, cap_bytes, true);
    // The arrival itself always "succeeds": duplicate discard and ordering
    // happen above the channel, in the coordinator.
    return true;
  });
}

size_t ClusterRuntime::SuppressedPrefix(int op, size_t n) {
  // EmitBatch has already counted the batch, so its first tuple carries
  // emission index tuples_out - n + 1.
  uint64_t first = instances_[op]->stats().tuples_out - n + 1;
  size_t skip = 0;
  while (skip < n && recovery_->Suppress(op, first + skip)) ++skip;
  return skip;
}

void ClusterRuntime::EmitRemoteReliableSpan(int child, TupleSpan batch) {
  // Unlike EmitRemoteReliable, no dead-host check: on the span route every
  // kill migrates the producer onto a survivor.
  TupleSpan live = batch.subspan(SuppressedPrefix(child, batch.size()));
  if (live.empty()) return;
  size_t enc_bytes = 0;
  auto decoded = RoundTripBatch(live, &enc_bytes);
  SP_CHECK(decoded.ok()) << decoded.status().ToString();
  int from = op_host_[child];
  for (const Edge& e : remote_edges_[child]) {
    SendReliableSpan(child, from, live, *decoded, enc_bytes, e.consumer,
                     e.port);
  }
}

void ClusterRuntime::SendReliableSpan(int producer_key, int from,
                                      TupleSpan wire, TupleSpan decoded,
                                      size_t enc_bytes, int consumer,
                                      size_t port) {
  EdgeKey key{producer_key, consumer, port};
  int to = op_host_[consumer];
  const bool healthy =
      from == to || ((faults_ == nullptr || !faults_->PairSevered(from, to)) &&
                     ChannelForPair(from, to) == nullptr);
  if (!healthy || !recovery_->SendSpanIfIdle(key, decoded.size())) {
    for (size_t i = 0; i < wire.size(); ++i) {
      SendReliable(producer_key, from, wire[i], decoded[i], consumer, port);
    }
    return;
  }
  // Idle and healthy: n sends would each be applied on arrival, in order,
  // leaving nothing pending — exactly what SendSpanIfIdle booked.
  if (from != to) AccountTransferBatch(from, to, decoded.size(), enc_bytes);
  recovery_->LogDeliveries(consumer, port, decoded);
  instances_[consumer]->PushBatch(port, decoded);
}

void ClusterRuntime::DeliverReliable(const EdgeKey& key, uint64_t seq,
                                     const Tuple& tuple, size_t bytes,
                                     bool account) {
  int consumer = key.consumer;
  if (account) {
    // Receiver-side accounting per arrival, duplicates included — the bytes
    // crossed the network either way. The host is resolved at delivery
    // time: the consumer may have migrated while the tuple was in flight.
    int to = op_host_[consumer];
    result_.hosts[to].net_tuples_in += 1;
    result_.hosts[to].net_bytes_in += bytes;
  }
  ClusterRuntime* self = this;
  bool fresh = recovery_->Deliver(
      key, seq, tuple, [self, consumer](size_t port, const Tuple& t) {
        self->recovery_->LogDelivery(consumer, port, t);
        self->instances_[consumer]->Push(port, t);
      });
  if (!fresh && account) {
    BumpChannelStat(ProducerHost(key), op_host_[consumer],
                    stats::kChanRetxDupDiscarded);
  }
}

void ClusterRuntime::ResendEntry(const RecoveryCoordinator::RetxItem& item) {
  int from = ProducerHost(item.key);
  int to = op_host_[item.key.consumer];
  if (from == to) {
    // Migration collapsed the edge while this tuple was in flight; any
    // channel copy can only arrive as a duplicate now. Deliver directly.
    recovery_->CountEscalated();
    DeliverReliable(item.key, item.seq, item.tuple, 0, false);
    return;
  }
  if (faults_ != nullptr && faults_->PairSevered(from, to)) {
    // The partition is absolute: even escalated retries are refused while
    // the pair is severed. The entry stays pending; the post-heal drain
    // (ForceRetransmits) redelivers it immediately.
    faults_->CountPartitionRefused();
    return;
  }
  // A resend is a fresh transfer: the sender pays net-out again (the
  // channel conservation identity is over sends, so it is unaffected).
  result_.hosts[from].net_tuples_out += 1;
  result_.hosts[from].net_bytes_out += item.bytes;
  if (!item.escalate) {
    recovery_->CountRetxSent();
    FaultChannel* channel = ChannelForPair(from, to);
    if (channel != nullptr) {
      channel->CountRetransmit();
      EdgeKey key = item.key;
      uint64_t seq = item.seq;
      uint64_t bytes = item.bytes;
      ClusterRuntime* self = this;
      channel->Send(item.tuple, [self, key, seq, bytes](const Tuple& t) {
        self->DeliverReliable(key, seq, t, bytes, true);
        return true;
      });
      return;
    }
    // The pair is healthy now (e.g. the consumer migrated off the degraded
    // link): the retransmit delivers directly like any healthy send.
    DeliverReliable(item.key, item.seq, item.tuple, item.bytes, true);
    return;
  }
  // Attempts exhausted: escalate to the out-of-band reliable path (a direct
  // delivery), so no tuple is ever lost to a persistently lossy channel.
  BumpChannelStat(from, to, stats::kChanRetxEscalated);
  recovery_->CountEscalated();
  DeliverReliable(item.key, item.seq, item.tuple, item.bytes, true);
}

void ClusterRuntime::DoCheckpoint() {
  recovery_->BeginCheckpoint();
  std::vector<char> host_touched(config_.num_hosts, 0);
  for (int id : plan_->TopoOrder()) {
    if (instances_[id] == nullptr) continue;
    int host = op_host_[id];
    if (faults_ != nullptr && !faults_->host_alive(host)) continue;
    host_touched[host] = 1;
    if (!recovery_->ShouldSerialize(id)) {
      // Incremental: nothing was delivered to this operator since its last
      // snapshot, so the stored blob is still exact.
      recovery_->CountSkipped();
      BumpCheckpointStat(host, stats::kCkptOpsSkipped, 1);
      continue;
    }
    std::string payload;
    instances_[id]->CheckpointState(&payload);
    size_t stored = recovery_->StoreBlob(id, std::move(payload),
                                         instances_[id]->stats().tuples_out);
    result_.hosts[host].ckpt_bytes += stored;
    BumpCheckpointStat(host, stats::kCkptOpsSerialized, 1);
    BumpCheckpointStat(host, stats::kCkptBytes, stored);
  }
  for (int h = 0; h < config_.num_hosts; ++h) {
    if (host_touched[h]) BumpCheckpointStat(h, stats::kCkptSnapshots, 1);
  }
}

void ClusterRuntime::MigrateHost(int host) {
  // Lowest-id surviving host hosts the dead host's operators.
  int target = -1;
  for (int h = 0; h < config_.num_hosts; ++h) {
    if (h != host && faults_->host_alive(h)) {
      target = h;
      break;
    }
  }
  faults_->MarkDead(host);
  result_.dead_hosts.push_back(host);
  if (target < 0) {
    // No survivor: nothing to migrate onto. Fold the work ledgers (outputs
    // are suppressed at the sinks) and leave the instances in place.
    for (int id : plan_->TopoOrder()) {
      if (instances_[id] == nullptr || op_host_[id] != host) continue;
      if (plan_->op(id).kind == DistOpKind::kMerge) {
        result_.hosts[host].merge_ops += instances_[id]->stats();
      } else {
        result_.hosts[host].ops += instances_[id]->stats();
      }
      stats_folded_[id] = true;
    }
    return;
  }

  // Operators to migrate, in topo order: upstream replacements exist before
  // anything replays into their consumers.
  std::vector<int> migrated;
  for (int id : plan_->TopoOrder()) {
    if (instances_[id] != nullptr && op_host_[id] == host) {
      migrated.push_back(id);
    }
  }

  // The dead instances' work folds into the dead host's ledger row (work
  // they really performed); the replacements fold into the target at end of
  // run.
  FoldAndSuppress(migrated);

  // Re-home the dead host's source partitions: the tap keeps feeding the
  // same partitions, now served by the target.
  for (auto& [name, hosts] : partition_hosts_) {
    for (int& h : hosts) {
      if (h == host) h = target;
    }
  }
  for (int& h : partition_host_merged_) {
    if (h == host) h = target;
  }

  RebuildAndRestore(migrated, target);
  RewireMigrated(migrated);
  ReplayDeliveryLogs(migrated, target);
}

void ClusterRuntime::FoldAndSuppress(const std::vector<int>& migrated) {
  // Each op's work so far folds into the host that actually ran it. Replay
  // re-emissions of outputs already published since the last checkpoint are
  // suppressed by output index — the rebuilt instance's emission numbering
  // restarts at the snapshot point.
  for (int id : migrated) {
    int host = op_host_[id];
    if (plan_->op(id).kind == DistOpKind::kMerge) {
      result_.hosts[host].merge_ops += instances_[id]->stats();
    } else {
      result_.hosts[host].ops += instances_[id]->stats();
    }
    recovery_->SetSuppression(id, instances_[id]->stats().tuples_out -
                                      recovery_->CheckpointTuplesOut(id));
  }
}

uint64_t ClusterRuntime::RebuildAndRestore(const std::vector<int>& migrated,
                                           int target) {
  uint64_t restored_bytes = 0;
  for (int id : migrated) {
    instances_[id] = MakeInstance(id);
    op_host_[id] = target;
    BindInstanceTelemetry(id);
    RebindShedWeight(id);
    recovery_->CountMigratedOp();
    if (recovery_->HasBlob(id)) {
      Status restored =
          instances_[id]->RestoreState(recovery_->BlobPayload(id));
      SP_CHECK(restored.ok())
          << "restoring op " << id
          << " from checkpoint failed: " << restored.ToString();
      uint64_t bytes = recovery_->BlobStoredBytes(id);
      recovery_->CountRestore(bytes);
      result_.hosts[target].ckpt_restored_bytes += bytes;
      BumpCheckpointStat(target, stats::kCkptRestores, 1);
      BumpCheckpointStat(target, stats::kCkptRestoredBytes, bytes);
      recovery_->ResetCheckpointTuplesOut(id);
      restored_bytes += bytes;
    }
  }
  return restored_bytes;
}

void ClusterRuntime::RewireMigrated(const std::vector<int>& migrated) {
  // Rewire the replacements in exactly Build's per-producer order.
  for (int id : migrated) {
    if (auto it = local_edges_.find(id); it != local_edges_.end()) {
      for (const Edge& e : it->second) WireLocalEdge(id, e.consumer, e.port);
    }
    if (auto it = remote_edges_.find(id); it != remote_edges_.end()) {
      for (const Edge& e : it->second) {
        AddRemoteFinishHook(id, e.consumer, e.port);
      }
      AttachRemoteSinks(id);
    }
    if (std::find(sink_ids_.begin(), sink_ids_.end(), id) !=
        sink_ids_.end()) {
      AttachResultSink(id);
    }
  }
}

void ClusterRuntime::ReplayDeliveryLogs(const std::vector<int>& migrated,
                                        int target) {
  // Replay each operator's post-snapshot delivery suffix, in original
  // arrival order. Local-edge sinks are muted (each migrated consumer
  // replays its own log) and external re-emissions are suppressed by index,
  // so replay has no side effects outside the restored instances.
  replaying_ = true;
  for (int id : migrated) {
    const auto log = recovery_->DeliveryLog(id);
    for (const RecoveryCoordinator::Delivery& d : log) {
      instances_[id]->Push(d.port, d.tuple);
    }
    recovery_->CountReplayedTuples(log.size());
    BumpCheckpointStat(target, stats::kCkptReplayedTuples, log.size());
  }
  replaying_ = false;
}

void ClusterRuntime::PushSource(const std::string& source,
                                const Tuple& tuple) {
  auto it = routing_.find(source);
  if (it == routing_.end() || partitioner_ == nullptr) return;
  if (faults_active() || recovery_active() || overload_active() ||
      adaptive_active()) {
    ObserveSourceTime(tuple);
  }
  int p = partitioner_->PartitionOf(tuple);
  // After a repartition the partitioner spans only surviving partitions;
  // map its index back into the original partition space.
  if (!survivor_map_.empty()) p = survivor_map_[p];
  if (p >= static_cast<int>(it->second.size())) return;
  int src_host = partition_hosts_.at(source)[p];
  if (faults_active() && !faults_->host_alive(src_host)) {
    // Routed to a dead partition (recovery off, or every host dead): the
    // tuple is lost at the tap and accounted.
    faults_->CountSourceTupleLost();
    return;
  }
  if (overload_active()) {
    switch (overload_->Admit(src_host, p)) {
      case OverloadController::Admission::kShed:
        // Shed before capture: the tuple never costs a cycle and never
        // enters source_tuples — exactly what a tap-level shed point saves.
        return;
      case OverloadController::Admission::kDefer:
        overload_->PushDeferred(src_host, source, tuple);
        return;
      case OverloadController::Admission::kProcess:
        break;
    }
  }
  DeliverSource(source, p, src_host, tuple);
}

void ClusterRuntime::RouteAdmitted(const std::string& source,
                                   const Tuple& tuple) {
  // A deferred tuple re-enters here: partition and host are resolved fresh
  // (a skew move or repartition may have re-homed them while it was
  // parked), and admission/epoch hooks are skipped — it was already counted
  // processed when taken from the queue.
  auto it = routing_.find(source);
  if (it == routing_.end() || partitioner_ == nullptr) return;
  int p = partitioner_->PartitionOf(tuple);
  if (!survivor_map_.empty()) p = survivor_map_[p];
  if (p >= static_cast<int>(it->second.size())) return;
  int src_host = partition_hosts_.at(source)[p];
  if (faults_active() && !faults_->host_alive(src_host)) {
    faults_->CountSourceTupleLost();
    return;
  }
  DeliverSource(source, p, src_host, tuple);
}

void ClusterRuntime::DeliverSource(const std::string& source, int p,
                                   int src_host, const Tuple& tuple) {
  auto it = routing_.find(source);
  result_.hosts[src_host].source_tuples++;
  result_.source_tuples++;
  if (adaptive_active() &&
      p < static_cast<int>(adaptive_partition_tuples_.size())) {
    // Per-partition intake rates feed the controller's measured cost model
    // (every consumer edge of partition p carries this traffic).
    adaptive_partition_tuples_[p]++;
    adaptive_partition_bytes_[p] += EncodedTupleSize(tuple);
  }
  // Serialize at most once per tuple: traffic is accounted on every remote
  // edge, but all remote consumers share one decoded copy.
  std::optional<Tuple> decoded;
  for (const Edge& edge : it->second[p]) {
    int to_host = op_host_[edge.consumer];
    if (recovery_active()) {
      // Every source edge is acked and sequenced (same-host edges skip the
      // network but keep their ordering), so a later migration can always
      // recover in-flight tuples.
      if (to_host == src_host) {
        SendReliable(-(p + 1), src_host, tuple, tuple, edge.consumer,
                     edge.port);
        continue;
      }
      if (!decoded.has_value()) {
        auto rt = RoundTripTuple(tuple);
        SP_CHECK(rt.ok()) << rt.status().ToString();
        decoded = std::move(*rt);
      }
      SendReliable(-(p + 1), src_host, tuple, *decoded, edge.consumer,
                   edge.port);
      continue;
    }
    if (to_host != src_host) {
      if (!decoded.has_value()) {
        auto rt = RoundTripTuple(tuple);
        SP_CHECK(rt.ok()) << rt.status().ToString();
        decoded = std::move(*rt);
      }
      if (faults_active()) {
        DeliverRemoteFaulty(src_host, tuple, *decoded, edge.consumer,
                            edge.port);
        continue;
      }
      AccountTransfer(src_host, to_host, tuple);
      instances_[edge.consumer]->Push(edge.port, *decoded);
    } else {
      instances_[edge.consumer]->Push(edge.port, tuple);
    }
  }
}

void ClusterRuntime::PushSourceBatch(const std::string& source,
                                     TupleSpan batch) {
  if (!SpanRoute()) {
    // Channel faults must draw the same deterministic sequence on both
    // execution paths, partitions refuse per send, shed/budget admission is
    // a per-tuple decision, adaptive snapshots read live per-tuple intake,
    // and lossy kills act at tuple granularity — so the batched route
    // degenerates to per-tuple delivery while any of them is live, as it
    // does wholesale in the kTuple differential oracle mode.
    for (const Tuple& tuple : batch) PushSource(source, tuple);
    return;
  }
  auto it = routing_.find(source);
  if (it == routing_.end() || partitioner_ == nullptr) return;
  const std::vector<int>& hosts = partition_hosts_.at(source);
  if (!recovery_active()) {
    RouteSlice(it->second, hosts, batch);
    return;
  }
  // Epoch slices: the recovery and kill hooks act only where source time
  // advances past everything seen so far (on any other tuple each of them
  // returns at once), so cutting there and running the hooks once per cut
  // lands checkpoints and kills exactly where the per-tuple route does.
  size_t begin = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!AdvancesSourceTime(batch[i])) continue;
    if (i > begin) {
      RouteSlice(it->second, hosts, batch.subspan(begin, i - begin));
    }
    ObserveSourceTime(batch[i]);
    begin = i;
  }
  if (begin < batch.size()) {
    RouteSlice(it->second, hosts, batch.subspan(begin));
  }
}

bool ClusterRuntime::AdvancesSourceTime(const Tuple& tuple) const {
  if (source_time_idx_ < 0 ||
      source_time_idx_ >= static_cast<int>(tuple.values().size())) {
    return false;
  }
  return !max_source_time_.has_value() ||
         tuple.at(source_time_idx_).AsUint64() > *max_source_time_;
}

void ClusterRuntime::RouteSlice(
    const std::vector<std::vector<Edge>>& partitions,
    const std::vector<int>& hosts, TupleSpan slice) {
  // One routing pass buckets the slice by partition. Buckets are scratch
  // slots reused across calls: a routed tuple is copy-assigned into a
  // retained slot, which keeps the slot's value storage, instead of being
  // freed by clear() and allocated again by push_back().
  if (bucket_scratch_.size() < partitions.size()) {
    bucket_scratch_.resize(partitions.size());
  }
  bucket_fill_.assign(partitions.size(), 0);
  for (const Tuple& tuple : slice) {
    int p = partitioner_->PartitionOf(tuple);
    if (p >= static_cast<int>(partitions.size())) continue;
    TupleBatch& slots = bucket_scratch_[p];
    size_t& fill = bucket_fill_[p];
    if (fill == slots.size()) {
      slots.push_back(tuple);
    } else {
      slots[fill] = tuple;
    }
    ++fill;
  }

  for (size_t p = 0; p < partitions.size(); ++p) {
    const TupleSpan bucket(bucket_scratch_[p].data(), bucket_fill_[p]);
    if (bucket.empty()) continue;
    int src_host = hosts[p];
    result_.hosts[src_host].source_tuples += bucket.size();
    result_.source_tuples += bucket.size();
    if (exec_mode_ == ExecMode::kColumnar && !recovery_active() &&
        col_bucket_scratch_.FromTuples(bucket)) {
      // Columnar delivery: convert the bucket to column-major form once and
      // push borrowed views. Buckets that are not fixed-width representable
      // fall through to the row path below, as does every bucket under
      // recovery (acked edges log and sequence rows).
      DeliverBucketColumns(partitions[p], bucket.size(), src_host);
      continue;
    }
    // Cross-host consumers of this partition share one encode/decode round
    // trip per bucket; local consumers see the bucket directly.
    std::optional<TupleBatch> decoded;
    size_t enc_bytes = 0;
    for (const Edge& edge : partitions[p]) {
      int to_host = op_host_[edge.consumer];
      TupleSpan delivered = bucket;
      if (to_host != src_host) {
        if (!decoded.has_value()) {
          auto rt = RoundTripBatch(bucket, &enc_bytes);
          SP_CHECK(rt.ok()) << rt.status().ToString();
          decoded = std::move(*rt);
        }
        delivered = *decoded;
      }
      if (recovery_active()) {
        // Every source edge is acked and sequenced (same-host edges skip
        // the network but keep their ordering), so a later migration can
        // always recover in-flight tuples.
        SendReliableSpan(-(static_cast<int>(p) + 1), src_host, bucket,
                         delivered, enc_bytes, edge.consumer, edge.port);
        continue;
      }
      if (to_host != src_host) {
        AccountTransferBatch(src_host, to_host, bucket.size(), enc_bytes);
      }
      instances_[edge.consumer]->PushBatch(edge.port, delivered);
    }
  }
}

void ClusterRuntime::DeliverBucketColumns(const std::vector<Edge>& edges,
                                          size_t rows, int src_host) {
  IdentitySelection(rows, &col_sel_scratch_);
  bool remote_ready = false;
  size_t enc_bytes = 0;
  for (const Edge& edge : edges) {
    int to_host = op_host_[edge.consumer];
    if (to_host != src_host) {
      if (!remote_ready) {
        // Encode the columns once per bucket. The wire bytes are identical
        // to EncodeBatch over the same rows (serde.h), so the network
        // ledger is unchanged by the columnar path.
        std::string wire;
        EncodeColumns(col_bucket_scratch_, col_sel_scratch_, &wire);
        enc_bytes = wire.size();
        auto decoded = DecodeBatch(wire);
        SP_CHECK(decoded.ok()) << decoded.status().ToString();
        // Round-tripped fixed-width rows stay fixed-width.
        SP_CHECK(col_remote_scratch_.FromTuples(*decoded));
        remote_ready = true;
      }
      AccountTransferBatch(src_host, to_host, rows, enc_bytes);
      instances_[edge.consumer]->PushColumns(edge.port, col_remote_scratch_,
                                             col_sel_scratch_);
    } else {
      instances_[edge.consumer]->PushColumns(edge.port, col_bucket_scratch_,
                                             col_sel_scratch_);
    }
  }
}

void ClusterRuntime::FinishSources() {
  if (finished_) return;
  finished_ = true;
  if (overload_active()) {
    // Close the final streaming epoch, then drain any remaining deferred
    // backlog across synthetic trailing epochs — each opens a fresh budget,
    // so at least one tuple admits per pass and the bounded queues empty in
    // finitely many rounds. The end-of-run operator flush below is outside
    // budget enforcement: capture has stopped, so there is no input left to
    // defer or shed against.
    if (overload_->epoch_open()) {
      overload_->CloseEpoch(
          [this](int partition) { return partition_host_merged_[partition]; });
    }
    while (overload_->HasDeferred()) {
      overload_->BeginEpoch(overload_->current_epoch() + 1);
      DrainDeferredQueues();
      overload_->CloseEpoch(
          [this](int partition) { return partition_host_merged_[partition]; });
    }
  }
  // A network partition cannot outlive the run: the drains below must leave
  // nothing stranded, so a never-healed partition reconnects with an
  // implicit heal first (recorded in the ledger like a plan-directed one,
  // stamped with the last observed source time).
  if (faults_active() && faults_->partition_active()) {
    MembershipEvent heal;
    heal.kind = MembershipEvent::Kind::kHeal;
    heal.epoch = faults_->last_time();
    ApplyMembershipEvent(heal);
  }
  // Deliver everything degraded channels still hold before any port sees
  // end-of-stream (the per-edge finish hooks flush again, harmlessly, for
  // tuples emitted during the flush cascade itself), then escalate whatever
  // is still unacked — nothing may stay stranded in a sender buffer.
  if (faults_active()) faults_->FlushAll();
  if (recovery_active()) {
    recovery_->DrainAllPending(
        [this](const RecoveryCoordinator::RetxItem& item) {
          ResendEntry(item);
        });
  }
  for (auto& [name, partitions] : routing_) {
    for (auto& edges : partitions) {
      for (const Edge& edge : edges) {
        instances_[edge.consumer]->Finish(edge.port);
      }
    }
  }
  // Fold operator work into host ledgers; merges are accounted separately
  // (they forward tuples rather than processing them). Operators on killed
  // hosts were folded at kill time — their post-death (suppressed) flush
  // work must not inflate the ledger — and a migrated replacement folds
  // into the host that actually ran it.
  for (int id : plan_->TopoOrder()) {
    const DistOperator& op = plan_->op(id);
    if (instances_[id] == nullptr) continue;
    if (!stats_folded_.empty() && stats_folded_[id]) continue;
    if (op.kind == DistOpKind::kMerge) {
      result_.hosts[op_host_[id]].merge_ops += instances_[id]->stats();
    } else {
      result_.hosts[op_host_[id]].ops += instances_[id]->stats();
    }
  }
}

void ClusterRuntime::ObserveSourceTime(const Tuple& tuple) {
  if (source_time_idx_ < 0 ||
      source_time_idx_ >= static_cast<int>(tuple.values().size())) {
    return;
  }
  uint64_t time = tuple.at(source_time_idx_).AsUint64();
  if (!max_source_time_.has_value() || time > *max_source_time_) {
    max_source_time_ = time;
  }
  // Order matters: the fault controller drains reorder/queue deliveries for
  // the closing epoch first (arrivals ack their sender buffers), then due
  // retransmits fire, then a due checkpoint snapshots the settled state,
  // then kills execute — a kill at epoch E sees E's checkpoint.
  std::vector<int> due_kills;
  if (faults_active()) {
    due_kills = faults_->OnSourceTime(time);
    // Membership events apply right after the boundary drain and before the
    // retransmit scan: a heal at epoch E force-drains the backlog that the
    // partition accumulated, and a partition at E refuses this epoch's
    // retransmits rather than last epoch's deliveries.
    for (const MembershipEvent& event : faults_->DueMembershipEvents(time)) {
      ApplyMembershipEvent(event);
    }
  }
  if (recovery_active()) {
    uint64_t eid = time / recovery_->config().epoch_width;
    if (recovery_->AdvanceEpoch(eid)) {
      recovery_->ScanRetransmits(
          eid, [this](const RecoveryCoordinator::RetxItem& item) {
            ResendEntry(item);
          });
      if (recovery_->CheckpointDue()) DoCheckpoint();
    }
  }
  // Overload epochs settle after fault/recovery housekeeping (drained
  // queues and due checkpoints charge the epoch they belong to) and before
  // kills, so a kill at the boundary sees the closed epoch's charges.
  if (overload_active()) OverloadOnTime(time);
  // Adaptive placement decides last among the controllers: its snapshot
  // sees settled epoch state (checkpoints stored, skew moves executed),
  // and a kill due at the same boundary dirties the next snapshot instead
  // of racing this one.
  if (adaptive_active()) AdaptiveOnTime(time);
  for (int host : due_kills) {
    Status st = KillHost(host);
    SP_CHECK(st.ok()) << st.ToString();
  }
}

void ClusterRuntime::OverloadOnTime(uint64_t time) {
  uint64_t eid = time / overload_->epoch_width();
  if (!overload_->EpochBoundary(eid)) return;
  if (overload_->epoch_open()) {
    std::optional<SkewMove> move = overload_->CloseEpoch(
        [this](int partition) { return partition_host_merged_[partition]; });
    if (move.has_value()) ExecuteSkewMove(*move);
  }
  // Bases snapshot after a skew move executes, so the move's restore/replay
  // cost is charged to the epoch it happened in, not smeared forward.
  overload_->BeginEpoch(eid);
  DrainDeferredQueues();
}

void ClusterRuntime::DrainDeferredQueues() {
  // Deferred tuples re-admit before the new epoch's fresh tuples, oldest
  // first, each re-checked against the fresh budget (a tuple can park
  // across several epochs under sustained overload). Re-admitted tuples may
  // be late for their original window downstream; the aggregate counts them
  // late_tuples — deferral trades loss for staleness, it cannot rewind
  // time.
  for (int h = 0; h < config_.num_hosts; ++h) {
    DeferredTuple d;
    while (overload_->TakeDeferred(h, &d)) {
      RouteAdmitted(d.source, d.tuple);
    }
  }
}

void ClusterRuntime::ExecuteSkewMove(const SkewMove& move) {
  if (!recovery_active() ||
      (faults_ != nullptr && !faults_->host_alive(move.to_host))) {
    // No state-migration machinery (or no live target): record the advice
    // instead of moving blind — a lossy move would invalidate open windows,
    // which is worse than running hot.
    overload_->RecordSkewAdviceOnly();
    return;
  }
  // Price the move in the advisor's state_move currency: the bytes of the
  // partition's checkpointed state that must cross the network.
  double move_bytes = 0;
  for (int id : plan_->TopoOrder()) {
    if (instances_[id] == nullptr) continue;
    if (plan_->op(id).partition != move.partition) continue;
    if (recovery_->HasBlob(id)) {
      move_bytes += static_cast<double>(recovery_->BlobStoredBytes(id));
    }
  }
  // Gate on amortized cost: moving pays off only if the state transfer
  // (store + restore at the checkpoint byte rate) amortized over the
  // advisor's horizon undercuts the relief — the cycles the hot host ran
  // over budget last epoch.
  AdvisorOptions options;
  options.state_move_bytes = move_bytes;
  double move_cycles =
      2.0 * move_bytes * cost_params_.cycles_per_checkpoint_byte;
  double relief = overload_->LastEpochOverrun(move.from_host);
  if (relief <= 0 ||
      move_cycles > relief * options.state_move_amortize_epochs) {
    overload_->RecordSkewAdviceOnly();
    return;
  }
  // Consult the advisor with the penalty attached: a candidate partition
  // set must beat the incumbent by more than the amortized move cost to
  // displace it. The placement move below keeps the incumbent set either
  // way — the set is a workload property; what the hotspot skews is
  // placement.
  auto advice = AdviseRepartition(*graph_, actual_ps_, options);
  if (advice.ok() && advice->changed) {
    // The workload itself wants a different set even after paying for the
    // move; defer to the kill-path Repartition machinery rather than mixing
    // a set change into a placement move. Advice-only for this epoch.
    overload_->RecordSkewAdviceOnly();
    return;
  }
  if (MigratePartition(move.partition, move.to_host)) {
    overload_->RecordSkewMove(move.from_host, move.partition, move_bytes);
  } else {
    overload_->RecordSkewAdviceOnly();
  }
}

bool ClusterRuntime::MigratePartition(int partition, int target,
                                      uint64_t* moved_bytes) {
  if (!recovery_active()) return false;
  if (partition < 0 ||
      partition >= static_cast<int>(partition_host_merged_.size())) {
    return false;
  }
  // Operators whose entire input derives from this partition, in topo order
  // (upstream replacements exist before anything replays into consumers).
  // Partition-tagged chains move as a unit, so build-time local edges stay
  // intra-chain and remote edges re-resolve hosts at delivery time.
  std::vector<int> migrated;
  for (int id : plan_->TopoOrder()) {
    if (instances_[id] != nullptr && plan_->op(id).partition == partition &&
        op_host_[id] != target) {
      migrated.push_back(id);
    }
  }
  if (migrated.empty() && partition_host_merged_[partition] == target) {
    return false;
  }
  FoldAndSuppress(migrated);
  // Re-home the partition: the tap keeps feeding it, now on the target.
  for (auto& [name, hosts] : partition_hosts_) {
    if (partition < static_cast<int>(hosts.size())) {
      hosts[partition] = target;
    }
  }
  partition_host_merged_[partition] = target;
  uint64_t restored = RebuildAndRestore(migrated, target);
  if (moved_bytes != nullptr) *moved_bytes = restored;
  RewireMigrated(migrated);
  ReplayDeliveryLogs(migrated, target);
  if (adaptive_ != nullptr) adaptive_topology_dirty_ = true;
  return true;
}

bool ClusterRuntime::MigrateStage(const AdaptiveStage& stage, int target,
                                  uint64_t* moved_bytes) {
  // The stage's ops are already in topo order (BuildAdaptiveTopology walks
  // TopoOrder), so upstream replacements exist before anything replays into
  // their consumers — the same invariant MigrateHost relies on. Stages
  // contain no sources, so no partition re-homing happens here: intake
  // keeps landing on the tap hosts and the stage-boundary edges re-resolve
  // the new host at delivery time.
  std::vector<int> migrated;
  for (int id : stage.ops) {
    if (instances_[id] != nullptr && op_host_[id] != target) {
      migrated.push_back(id);
    }
  }
  if (migrated.empty()) return false;
  FoldAndSuppress(migrated);
  *moved_bytes = RebuildAndRestore(migrated, target);
  RewireMigrated(migrated);
  ReplayDeliveryLogs(migrated, target);
  return true;
}

Status ClusterRuntime::KillHost(int host) {
  // Out-of-range or already-dead targets stay silent no-ops (a plan can
  // legitimately name the same host twice, or a host past the cluster);
  // only killing the last survivor is an error — there would be nobody
  // left to repartition onto or migrate state to, and every downstream
  // answer would silently vanish.
  if (host < 0 || host >= config_.num_hosts) return Status::OK();
  if (!faults_->host_alive(host)) return Status::OK();
  int alive = 0;
  for (int h = 0; h < config_.num_hosts; ++h) {
    if (faults_->host_alive(h)) ++alive;
  }
  if (alive <= 1) {
    return Status::RuntimeError("kill host ", host,
                                ": cannot kill the last surviving host");
  }
  // Deliver in-flight channel tuples while the host can still receive;
  // everything sent before the kill instant was already "on the wire".
  faults_->FlushAll();
  if (recovery_active()) {
    MigrateHost(host);
    if (adaptive_ != nullptr) adaptive_topology_dirty_ = true;
    return Status::OK();
  }
  // Record window-invalidation markers for the open state the host loses,
  // and fold its work ledger now — post-death flush work is suppressed and
  // must not be accounted.
  for (int id : plan_->TopoOrder()) {
    const DistOperator& op = plan_->op(id);
    if (op_host_[id] != host || instances_[id] == nullptr) continue;
    Operator::OpenState open = instances_[id]->open_state();
    faults_->RecordInvalidation(
        host, instances_[id]->label() + "#" + std::to_string(id), open.windows,
        open.tuples);
    if (op.kind == DistOpKind::kMerge) {
      result_.hosts[host].merge_ops += instances_[id]->stats();
    } else {
      result_.hosts[host].ops += instances_[id]->stats();
    }
    stats_folded_[id] = true;
  }
  faults_->MarkDead(host);
  result_.dead_hosts.push_back(host);
  if (adaptive_ != nullptr) adaptive_topology_dirty_ = true;
  // Downstream ports fed by the dead host would otherwise wait for an EOS
  // that can never arrive: finish them now (Finish is idempotent per port,
  // so the end-of-run pass is unaffected).
  for (const auto& [child, edges] : remote_edges_) {
    if (op_host_[child] != host) continue;
    for (const Edge& e : edges) {
      int to_host = op_host_[e.consumer];
      if (!faults_->host_alive(to_host)) continue;
      faults_->FlushChannel(host, to_host);
      instances_[e.consumer]->Finish(e.port);
    }
  }
  for (auto& [name, partitions] : routing_) {
    const std::vector<int>& hosts = partition_hosts_.at(name);
    for (size_t p = 0; p < partitions.size(); ++p) {
      if (p >= hosts.size() || hosts[p] != host) continue;
      for (const Edge& edge : partitions[p]) {
        if (!faults_->host_alive(op_host_[edge.consumer])) continue;
        instances_[edge.consumer]->Finish(edge.port);
      }
    }
  }
  if (faults_->plan().repartition) Repartition();
  return Status::OK();
}

void ClusterRuntime::ApplyMembershipEvent(const MembershipEvent& event) {
  if (!membership_telemetry_bound_) {
    membership_telemetry_bound_ = true;
    if (telemetry_enabled_) {
      // Membership is a cluster-wide lifecycle, not a per-host one: its
      // instruments live in host 0's registry under a single scope, like the
      // adaptive controller's. Binding on the first applied event keeps runs
      // whose membership directives never fire byte-identical.
      faults_->BindMembershipTelemetry(host_stats_[0]->GetScope("membership"));
    }
  }
  switch (event.kind) {
    case MembershipEvent::Kind::kPartition: {
      PartitionSpec spec;
      spec.groups = event.groups;
      spec.epoch = event.epoch;
      // No flush here: the epoch-boundary drain already delivered everything
      // that was "on the wire" before the split; reorder-held tuples stay
      // held and deliver after the heal.
      faults_->ApplyPartition(spec);
      break;
    }
    case MembershipEvent::Kind::kHeal:
      faults_->ApplyHeal(event.epoch);
      if (recovery_active()) {
        // Drain the retransmit backlog immediately instead of waiting out
        // each entry's backoff: the heal is a connectivity event, not a
        // delivery failure, so no attempt is charged and nothing escalates.
        recovery_->ForceRetransmits(
            [this](const RecoveryCoordinator::RetxItem& item) {
              ResendEntry(item);
            });
      }
      break;
    case MembershipEvent::Kind::kRejoin:
      RejoinHost(event.host, event.epoch);
      break;
  }
}

void ClusterRuntime::RejoinHost(int host, uint64_t epoch) {
  SP_CHECK(host >= 0) << "rejoin host must be explicit";
  if (host < config_.num_hosts && faults_->host_alive(host)) {
    // Already a live member: nothing to admit, no state to move.
    faults_->RecordRejoinSuppressed(host, epoch);
    return;
  }
  if (host >= config_.num_hosts) {
    // Elastic scale-out: a never-before-seen host grows the cluster. The
    // overload controller keeps its construction-time host count — budget
    // rows are a plan property, and DrainDeferredQueues stays within the
    // bounds the controller was sized for.
    int old_hosts = config_.num_hosts;
    config_.num_hosts = host + 1;
    result_.hosts.resize(static_cast<size_t>(config_.num_hosts));
    for (int h = old_hosts; h < config_.num_hosts; ++h) {
      host_stats_.push_back(std::make_unique<StatsRegistry>());
      host_stats_.back()->set_events_enabled(trace_events_enabled_);
    }
  }
  faults_->MarkRejoined(host);
  // The host is a live member again: its ledger row resumes accumulating
  // and CheckedHost stops reporting it as killed.
  auto& dead = result_.dead_hosts;
  dead.erase(std::remove(dead.begin(), dead.end(), host), dead.end());
  if (adaptive_ != nullptr) adaptive_topology_dirty_ = true;
  if (!recovery_active()) {
    // Lossy runs have no checkpointed state to move back — the kill folded
    // the host's ledgers and finished its downstream ports, so re-admission
    // is liveness-only. State rebalance requires the checkpoint machinery
    // (docs/FAULTS.md "Membership lifecycle").
    faults_->RecordRejoin(host, epoch, 0);
    return;
  }
  // Cooldown guard, shared with the adaptive controller's rules: a storm of
  // rejoin directives inside the cooldown window still admits every host,
  // but only the first moves state — back-to-back full migrations would
  // thrash the very stability a rejoin is meant to restore.
  uint64_t width = std::max<uint64_t>(1, faults_->plan().epoch_width);
  uint64_t eid = epoch / width;
  uint64_t cooldown = faults_->plan().adaptive.cooldown_epochs;
  if (rejoin_seen_ && eid < last_rejoin_epoch_ + cooldown) {
    faults_->RecordRejoinSuppressed(host, epoch);
    return;
  }
  rejoin_seen_ = true;
  last_rejoin_epoch_ = eid;
  uint64_t moved_total = 0;
  for (int partition : RejoinPartitions(host)) {
    uint64_t moved = 0;
    if (MigratePartition(partition, host, &moved)) moved_total += moved;
  }
  faults_->RecordRejoin(host, epoch, moved_total);
}

std::vector<int> ClusterRuntime::RejoinPartitions(int host) const {
  // Candidate set: a returning host reclaims the partitions it owned at
  // build time (now re-homed elsewhere); an elastic newcomer peels
  // partitions off the most loaded host, heaviest first.
  //
  // Loads are priced through the recost path in the adaptive controller's
  // currency, but over partition-tagged compute only — the load a rejoin
  // can actually move. Folded history (a returning host's pre-kill row)
  // is sunk cost and would only bias the projection against restoration.
  auto partition_cycles = [this](int partition) {
    HostMetrics m;
    for (int id : plan_->TopoOrder()) {
      if (instances_[id] == nullptr) continue;
      if (plan_->op(id).partition != partition) continue;
      if (plan_->op(id).kind == DistOpKind::kMerge) {
        m.merge_ops += instances_[id]->stats();
      } else {
        m.ops += instances_[id]->stats();
      }
    }
    return HostCycles(m, cost_params_);
  };
  std::vector<double> loads(static_cast<size_t>(config_.num_hosts), 0.0);
  for (size_t p = 0; p < partition_host_merged_.size(); ++p) {
    int h = partition_host_merged_[p];
    if (h >= 0 && h < config_.num_hosts && faults_->host_alive(h)) {
      loads[h] += partition_cycles(static_cast<int>(p));
    }
  }
  std::vector<int> candidates;
  for (size_t p = 0; p < partition_host_build_.size(); ++p) {
    int cur = partition_host_merged_[p];
    if (partition_host_build_[p] == host && cur != host &&
        faults_->host_alive(cur)) {
      candidates.push_back(static_cast<int>(p));
    }
  }
  bool returning = !candidates.empty();
  if (!returning) {
    int hot = -1;
    double hot_load = 0;
    for (int h = 0; h < config_.num_hosts; ++h) {
      if (h == host || !faults_->host_alive(h)) continue;
      if (loads[h] > hot_load) {
        hot_load = loads[h];
        hot = h;
      }
    }
    if (hot < 0) return candidates;  // no load signal: nothing to rebalance
    for (size_t p = 0; p < partition_host_merged_.size(); ++p) {
      if (partition_host_merged_[p] == hot) {
        candidates.push_back(static_cast<int>(p));
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](int a, int b) {
                       return partition_cycles(a) > partition_cycles(b);
                     });
  }
  // Hysteresis gate over the recost projection. The gate is pair-local on
  // purpose — an unrelated global bottleneck must not veto restoring a
  // returning host's partitions. A returning host reclaiming its own
  // build-time partitions needs only strictly positive pair relief: the
  // imbalance (loaded donor, idle returnee) is exactly what restoration
  // fixes, and the donor's accumulated compute would otherwise dilute the
  // relief fraction the longer the host stayed dead — thrash is bounded by
  // the rejoin cooldown, not by this gate. An elastic newcomer peeling
  // partitions off a stranger must clear the full adaptive hysteresis
  // fraction. A returning host with no load signal yet restores its build
  // placement unconditionally.
  RecostWeights weights{cost_params_.cycles_per_remote_tuple,
                        cost_params_.cycles_per_remote_byte};
  double hysteresis = returning ? 0.0 : faults_->plan().adaptive.hysteresis;
  std::vector<int> accepted;
  for (int p : candidates) {
    int donor = partition_host_merged_[p];
    double before = std::max(loads[donor], loads[host]);
    if (before <= 0) {
      if (returning) accepted.push_back(p);
      continue;
    }
    StageRates moved;
    moved.host = donor;
    moved.compute_cycles = partition_cycles(p);
    std::vector<double> next =
        ProjectHostLoads(config_.num_hosts, loads, moved, host, weights);
    double after = std::max(next[donor], next[host]);
    if ((before - after) / before <= hysteresis) continue;
    accepted.push_back(p);
    loads = std::move(next);
  }
  return accepted;
}

void ClusterRuntime::Repartition() {
  // Surviving partitions of the shared partition space, in order.
  std::vector<int> survivors;
  for (size_t p = 0; p < partition_host_merged_.size(); ++p) {
    if (faults_->host_alive(partition_host_merged_[p])) {
      survivors.push_back(static_cast<int>(p));
    }
  }
  if (survivors.empty() || source_schema_ == nullptr) {
    // Nothing to route to: keep the old map; routed tuples count lost.
    return;
  }
  // Consult the advisor: the optimal set is a workload property, so this
  // usually confirms the current set and the recovery move is a rebuild of
  // the hash-slice map over the survivors.
  PartitionSet ps = actual_ps_;
  auto advice = AdviseRepartition(*graph_, actual_ps_);
  if (advice.ok()) ps = advice->recommended;
  auto rebuilt = MakePartitioner(ps, source_schema_,
                                 static_cast<int>(survivors.size()));
  if (!rebuilt.ok()) return;  // keep the old map rather than halt the run
  partitioner_ = std::move(*rebuilt);
  survivor_map_ = std::move(survivors);
  actual_ps_ = ps;
  // Survivor-side open state is realigned by the new map; its size prices
  // the repartition in model cycles at ledger time.
  uint64_t state_tuples = 0;
  for (int id : plan_->TopoOrder()) {
    if (instances_[id] == nullptr || !faults_->host_alive(op_host_[id])) {
      continue;
    }
    state_tuples += instances_[id]->open_state().tuples;
  }
  faults_->RecordRepartition(state_tuples);
  if (adaptive_ != nullptr) adaptive_topology_dirty_ = true;
}

RunLedger ClusterRuntime::MakeLedger(const CpuCostParams& params,
                                     double duration_sec,
                                     const RunLedgerOptions& options) const {
  RunLedger ledger(options);
  ledger.SetMeta("hosts", static_cast<uint64_t>(config_.num_hosts));
  ledger.SetMeta("duration_sec", duration_sec);
  ledger.SetMeta("source_tuples", result_.source_tuples);
  for (size_t h = 0; h < result_.hosts.size(); ++h) {
    ledger.AddHost(static_cast<int>(h), result_.hosts[h], params,
                   duration_sec);
  }
  for (size_t h = 0; h < host_stats_.size(); ++h) {
    ledger.AddRegistry(static_cast<int>(h), *host_stats_[h]);
  }
  for (const auto& [name, batch] : result_.outputs) {
    // Result sinks pre-create their output batch at attach time (they append
    // through a stable pointer); skipping empty batches keeps the ledger
    // identical to the lazy-creation shape, where an entry existed only
    // once a sink actually emitted.
    if (batch.empty()) continue;
    ledger.AddOutput(name, batch.size());
  }
  if (faults_active()) {
    ledger.SetFaults(faults_->section(params.cycles_per_remote_tuple));
  }
  if (recovery_active()) {
    ledger.SetRecovery(recovery_->section(params.cycles_per_checkpoint_byte));
  }
  if (overload_active()) {
    // SetOverload drops disengaged sections, so a run whose budget always
    // covered the load serializes byte-identically to a budget-free run.
    ledger.SetOverload(overload_->section());
  }
  if (adaptive_active()) {
    // SetAdaptive drops never-engaged sections, so a drift-free run with the
    // controller armed serializes byte-identically to an unarmed run.
    ledger.SetAdaptive(adaptive_->section());
  }
  if (faults_active()) {
    // SetMembership drops never-engaged sections, so a plan whose membership
    // directives never fired serializes byte-identically to an unarmed run.
    ledger.SetMembership(
        faults_->membership_section(params.cycles_per_checkpoint_byte));
  }
  // SetSketch drops inactive sections, so exact plans stay byte-identical.
  ledger.SetSketch(MakeSketchSection());
  return ledger;
}

SketchSection ClusterRuntime::MakeSketchSection() const {
  SketchSection s;
  for (int id : plan_->TopoOrder()) {
    const DistOperator& op = plan_->op(id);
    if (op.sketch_role == SketchRole::kNone || instances_[id] == nullptr) {
      continue;
    }
    if (op.sketch_role == SketchRole::kHost) {
      auto* host_op = static_cast<const SketchOp*>(instances_[id].get());
      const SketchOp::Accounting& acc = host_op->accounting();
      SketchHostRow row;
      row.host = op_host_[id];
      row.updates = acc.updates;
      row.summaries = acc.summaries;
      row.summary_bytes = acc.summary_bytes;
      row.epochs = acc.epochs;
      s.hosts.push_back(row);
      continue;
    }
    // The merge op carries the plan-wide error budget: every estimate it
    // emitted over-counts by at most eps * epoch mass, so the widest band is
    // taken over the heaviest epoch it answered.
    auto* merge_op = static_cast<const SketchMergeOp*>(instances_[id].get());
    const SketchMergeOp::Accounting& acc = merge_op->accounting();
    const SketchSpec& spec = merge_op->spec();
    sketch::CmParams grid = spec.Grid();
    s.active = true;
    s.eps = spec.eps;
    s.confidence = spec.confidence;
    s.width = grid.width;
    s.depth = grid.depth;
    s.merged_summaries += acc.merged_summaries;
    s.merged_bytes += acc.merged_bytes;
    s.epochs += acc.epochs;
    s.estimates += acc.estimates;
    s.max_epoch_mass = std::max(s.max_epoch_mass, acc.max_epoch_mass);
    s.exact = false;
  }
  if (s.active) {
    s.abs_error_bound =
        s.eps * static_cast<double>(s.max_epoch_mass);
    s.inexact_reasons.push_back(
        "sketch leg: COUNT/SUM answers carry an eps*N per-epoch over-count "
        "bound (never under-count)");
  }
  return s;
}

OpStats ClusterRuntime::StatsForStream(const std::string& stream_name) const {
  OpStats total;
  for (int id : plan_->TopoOrder()) {
    const DistOperator& op = plan_->op(id);
    if (op.stream_name == stream_name && instances_[id] != nullptr) {
      total += instances_[id]->stats();
    }
  }
  return total;
}

}  // namespace streampart
