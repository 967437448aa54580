#pragma once

/// \file experiment.h
/// \brief Experiment harness reproducing the paper's evaluation protocol.
///
/// Paper §6: replay a packet trace into a cluster of 1..4 hosts (two
/// partitions per host), under several system configurations — combinations
/// of a partitioning scheme and optimizer rules — and measure CPU load and
/// network load on the aggregator node (the host executing the query-tree
/// root). This harness runs such sweeps and yields the series the figures
/// plot.

#include <map>
#include <string>
#include <vector>

#include "dist/cluster_runtime.h"
#include "exec/local_engine.h"
#include "metrics/cpu_model.h"
#include "optimizer/optimizer.h"
#include "trace/trace_gen.h"

namespace streampart {

/// \brief One system configuration of a §6 experiment.
struct ExperimentConfig {
  /// Series label ("Naive", "Optimized", "Partitioned", ...).
  std::string name;
  /// Source partitioning; empty = round-robin (query-independent).
  PartitionSet ps;
  OptimizerOptions optimizer;
  /// Fault scenario (dist/fault.h); the default (empty) plan injects
  /// nothing and leaves the run byte-identical to a fault-free one.
  FaultPlan faults;
};

/// \brief Measurements of one (configuration, cluster size) cell.
struct ExperimentPoint {
  int num_hosts = 0;
  /// CPU load (%) on the aggregator host. >100 means overload (the real
  /// system would drop tuples).
  double aggregator_cpu_pct = 0;
  /// Network load (tuples/sec) into the aggregator host.
  double aggregator_net_tuples_sec = 0;
  /// Mean CPU load (%) over the leaf (non-aggregator) hosts; equals the
  /// aggregator load for a single-host cluster.
  double leaf_cpu_pct = 0;
  /// Total result tuples produced by plan sinks.
  uint64_t output_tuples = 0;
};

/// \brief All series of one figure.
struct SweepResult {
  std::vector<int> host_counts;
  /// Config name -> one point per host count.
  std::map<std::string, std::vector<ExperimentPoint>> series;
};

/// \brief Full outcome of one experiment cell: the raw cluster result plus
/// its structured run ledger (metrics/report.h). The ledger already folds
/// the host ledgers, the cost model and every per-operator telemetry scope;
/// meta fields config/hosts/duration_sec are set.
struct ExperimentCell {
  ClusterRunResult result;
  RunLedger ledger;
};

/// \brief Runs configuration sweeps over a shared synthetic trace.
class ExperimentRunner {
 public:
  /// \param graph must outlive the runner. \param source the source-stream
  /// name the trace feeds (usually "TCP").
  ExperimentRunner(const QueryGraph* graph, std::string source,
                   TraceConfig trace_config, CpuCostParams cpu_params);

  /// \brief Runs every configuration at every cluster size.
  Result<SweepResult> RunSweep(const std::vector<ExperimentConfig>& configs,
                               const std::vector<int>& host_counts,
                               int partitions_per_host = 2);

  /// \brief Runs one cell and returns the full cluster result (used by tests
  /// and for output-equivalence checks). The trace is replayed through the
  /// batched source path in \p batch_size chunks; batch_size 0 replays
  /// tuple-at-a-time (the pre-vectorization path — benches compare the two,
  /// all accounted metrics are identical either way). \p exec_mode selects
  /// the delivery path of the batched route (ClusterRuntime::set_exec_mode);
  /// all three modes are differentially identical in outputs and ledger.
  Result<ClusterRunResult> RunOne(const ExperimentConfig& config,
                                  int num_hosts, int partitions_per_host = 2,
                                  size_t batch_size = kDefaultSourceBatch,
                                  ExecMode exec_mode = ExecMode::kBatch);

  /// \brief Like RunOne, but also returns the cell's run ledger. The ledger
  /// is deterministic: RunCell at batch_size N and batch_size 0 produce
  /// byte-identical ToJsonl() output (advisory instruments excluded), and
  /// likewise across exec modes.
  Result<ExperimentCell> RunCell(const ExperimentConfig& config, int num_hosts,
                                 int partitions_per_host = 2,
                                 size_t batch_size = kDefaultSourceBatch,
                                 const RunLedgerOptions& ledger_options = {},
                                 ExecMode exec_mode = ExecMode::kBatch);

  const TupleBatch& trace() const { return trace_; }
  const CpuCostParams& cpu_params() const { return cpu_params_; }
  double duration_sec() const {
    return static_cast<double>(trace_config_.duration_sec);
  }

 private:
  const QueryGraph* graph_;
  std::string source_;
  TraceConfig trace_config_;
  CpuCostParams cpu_params_;
  TupleBatch trace_;
};

}  // namespace streampart
