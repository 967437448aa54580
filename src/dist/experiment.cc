#include "dist/experiment.h"

#include <algorithm>

namespace streampart {

ExperimentRunner::ExperimentRunner(const QueryGraph* graph, std::string source,
                                   TraceConfig trace_config,
                                   CpuCostParams cpu_params)
    : graph_(graph),
      source_(std::move(source)),
      trace_config_(trace_config),
      cpu_params_(cpu_params) {
  PacketTraceGenerator gen(trace_config_);
  trace_ = gen.GenerateAll();
}

Result<ClusterRunResult> ExperimentRunner::RunOne(
    const ExperimentConfig& config, int num_hosts, int partitions_per_host,
    size_t batch_size, ExecMode exec_mode) {
  SP_ASSIGN_OR_RETURN(
      ExperimentCell cell,
      RunCell(config, num_hosts, partitions_per_host, batch_size, {},
              exec_mode));
  return std::move(cell.result);
}

Result<ExperimentCell> ExperimentRunner::RunCell(
    const ExperimentConfig& config, int num_hosts, int partitions_per_host,
    size_t batch_size, const RunLedgerOptions& ledger_options,
    ExecMode exec_mode) {
  ClusterConfig cluster;
  cluster.num_hosts = num_hosts;
  cluster.partitions_per_host = partitions_per_host;
  // Re-cost clause selectivities from the trace: a prefix of the shared
  // trace stands in for the "trace stats" of the clause-weighting rule.
  // trace_ outlives the optimization call below.
  OptimizerOptions oopts = config.optimizer;
  if (oopts.predicate_sample.empty() && !trace_.empty()) {
    TupleSpan all(trace_);
    oopts.predicate_sample = all.subspan(0, std::min<size_t>(1024, all.size()));
  }
  SP_ASSIGN_OR_RETURN(
      DistPlan plan,
      OptimizeForPartitioning(*graph_, cluster, config.ps, oopts));
  ClusterRuntime runtime(graph_, &plan, cluster);
  runtime.set_exec_mode(exec_mode);
  // Budgets are charged in the same cycle currency the ledger reports.
  runtime.set_cost_params(cpu_params_);
  // armed() covers every controller a plan can carry (fault injection,
  // recovery, overload, adaptive placement) — a plan that looks "empty" to
  // the fault controller can still arm one of the others.
  if (config.faults.armed()) {
    runtime.set_fault_plan(config.faults);
  }
  SP_RETURN_NOT_OK(runtime.Build(config.ps));
  if (batch_size == 0) {
    for (const Tuple& t : trace_) runtime.PushSource(source_, t);
  } else {
    TupleSpan all(trace_);
    for (size_t off = 0; off < all.size(); off += batch_size) {
      runtime.PushSourceBatch(
          source_, all.subspan(off, std::min(batch_size, all.size() - off)));
    }
  }
  runtime.FinishSources();
  ExperimentCell cell{runtime.result(),
                      runtime.MakeLedger(cpu_params_, duration_sec(),
                                         ledger_options)};
  cell.ledger.SetMeta("config", config.name);
  return cell;
}

Result<SweepResult> ExperimentRunner::RunSweep(
    const std::vector<ExperimentConfig>& configs,
    const std::vector<int>& host_counts, int partitions_per_host) {
  SweepResult sweep;
  sweep.host_counts = host_counts;
  double duration = duration_sec();
  for (const ExperimentConfig& config : configs) {
    for (int hosts : host_counts) {
      SP_ASSIGN_OR_RETURN(ExperimentCell cell,
                          RunCell(config, hosts, partitions_per_host));
      // Every figure quantity is read off the run ledger; the ledger rows
      // hold the same cost-model numbers (computed by the same functions in
      // the same order) the benches previously derived directly, so figure
      // output is unchanged bit for bit.
      const std::vector<LedgerHostRow>& rows = cell.ledger.hosts();
      ExperimentPoint point;
      point.num_hosts = hosts;
      point.aggregator_cpu_pct = rows[0].cpu_load_pct;
      point.aggregator_net_tuples_sec = rows[0].net_tuples_in_per_sec;
      if (hosts > 1) {
        // Matches ClusterRunResult::LeafCpuSeconds: per-host CPU-seconds
        // summed in host order, aggregator (host 0) excluded.
        double leaf_seconds = 0;
        for (size_t h = 1; h < rows.size(); ++h) {
          leaf_seconds += rows[h].cpu_seconds;
        }
        point.leaf_cpu_pct =
            100.0 * leaf_seconds / (duration * (hosts - 1));
      } else {
        point.leaf_cpu_pct = point.aggregator_cpu_pct;
      }
      for (const auto& [name, tuples] : cell.result.outputs) {
        point.output_tuples += tuples.size();
      }
      sweep.series[config.name].push_back(point);
    }
  }
  return sweep;
}

}  // namespace streampart
