/// \file micro_checkpoint.cc
/// \brief Cost of lossless recovery when nothing fails: the §6.1 simple-
/// aggregation workload runs with epoch-aligned checkpointing at several
/// intervals and the simulated CPU-seconds are compared against the same run
/// without the recovery machinery. Snapshots are priced through
/// CpuCostParams::cycles_per_checkpoint_byte, so the overhead reported here
/// is the model-level answer to "what does a checkpoint interval cost?".
/// Every interval replays on the default batched route (kDefaultSourceBatch
/// tuples per push) and once more per tuple, untimed: the two must agree on
/// every model number. Results go to stdout and BENCH_checkpoint.json; the
/// run fails if the default interval (RecoveryConfig::checkpoint_interval)
/// costs >= 5%, if checkpointing perturbs any query answer, or if the
/// batched and per-tuple model numbers differ.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/figlib.h"
#include "dist/checkpoint.h"
#include "dist/experiment.h"
#include "metrics/cpu_model.h"
#include "trace/trace_gen.h"

namespace {

using namespace streampart;
using namespace streampart::bench;

struct IntervalPoint {
  uint64_t interval = 0;  // 0 = no recovery machinery (baseline)
  double wall_s = 0;
  double cpu_seconds = 0;       // summed simulated host CPU-seconds
  double overhead_pct = 0;      // vs the interval-0 baseline
  uint64_t checkpoints = 0;     // snapshot rounds taken
  uint64_t ops_serialized = 0;  // operator states serialized
  uint64_t ops_skipped = 0;     // unchanged states skipped (incremental)
  uint64_t checkpoint_bytes = 0;
  bool outputs_identical = true;  // answers match the baseline as multisets
  bool matches_per_tuple = true;  // model numbers equal a per-tuple replay
};

/// Fills the model numbers of \p p from one replay's cell.
void FillModel(const ExperimentCell& cell, const CpuCostParams& params,
               IntervalPoint* p) {
  p->cpu_seconds = 0;
  for (const HostMetrics& host : cell.result.hosts) {
    p->cpu_seconds += HostCpuSeconds(host, params);
  }
  const RecoverySection& rec = cell.ledger.recovery();
  p->checkpoints = rec.checkpoints;
  p->ops_serialized = rec.ops_serialized;
  p->ops_skipped = rec.ops_skipped;
  p->checkpoint_bytes = rec.checkpoint_bytes;
}

bool SameModel(const IntervalPoint& a, const IntervalPoint& b) {
  return a.cpu_seconds == b.cpu_seconds && a.checkpoints == b.checkpoints &&
         a.ops_serialized == b.ops_serialized &&
         a.ops_skipped == b.ops_skipped &&
         a.checkpoint_bytes == b.checkpoint_bytes;
}

bool SameOutputs(const std::map<std::string, TupleBatch>& a,
                 const std::map<std::string, TupleBatch>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, tuples] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second.size() != tuples.size()) return false;
    TupleBatch x = tuples, y = it->second;
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    for (size_t i = 0; i < x.size(); ++i) {
      if (!(x[i] == y[i])) return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  BenchSetup setup = MakeSimpleAggSetup();
  TraceConfig tc = SimpleAggTrace();
  ExperimentRunner runner(setup.graph.get(), "TCP", tc, CalibratedCpu());
  constexpr int kHosts = 4;

  std::printf("Checkpoint-overhead micro-benchmark: §6.1 simple aggregation\n");
  PrintTraceNote(tc);
  std::printf("hosts: %d, epoch width: 1 s, trace: %zu tuples\n\n", kHosts,
              runner.trace().size());

  // Interval 0 is the seed engine (no set_fault_plan call at all); the rest
  // attach a checkpoint-only plan. Every timed replay takes the default
  // batched route, which recovery no longer pins to per-tuple delivery, so
  // wall clocks compare like for like.
  const uint64_t kDefaultInterval = RecoveryConfig().checkpoint_interval;
  std::vector<uint64_t> intervals = {0, 4, 8, 16};
  std::vector<IntervalPoint> points;
  const std::map<std::string, TupleBatch>* baseline_outputs = nullptr;
  double baseline_cpu = 0;
  std::map<std::string, TupleBatch> baseline_copy;

  for (uint64_t interval : intervals) {
    ExperimentConfig config = NaiveConfig();
    config.name = interval == 0 ? "baseline"
                                : "ckpt_" + std::to_string(interval);
    config.faults.checkpoint_interval = interval;
    // The untimed per-tuple reference runs first, so the timed replay never
    // pays the process's first-run heap growth.
    auto per_tuple = runner.RunCell(config, kHosts, 2, /*batch_size=*/0);
    SP_CHECK(per_tuple.ok()) << per_tuple.status().ToString();
    IntervalPoint reference;
    FillModel(*per_tuple, runner.cpu_params(), &reference);

    auto start = std::chrono::steady_clock::now();
    auto cell = runner.RunCell(config, kHosts, 2, kDefaultSourceBatch);
    auto end = std::chrono::steady_clock::now();
    SP_CHECK(cell.ok()) << cell.status().ToString();

    IntervalPoint p;
    p.interval = interval;
    p.wall_s = std::chrono::duration<double>(end - start).count();
    FillModel(*cell, runner.cpu_params(), &p);
    p.matches_per_tuple = SameModel(p, reference);
    const RecoverySection& rec = cell->ledger.recovery();
    if (interval == 0) {
      SP_CHECK(!rec.active) << "baseline must not carry a recovery section";
      baseline_copy = cell->result.outputs;
      baseline_outputs = &baseline_copy;
      baseline_cpu = p.cpu_seconds;
    } else {
      SP_CHECK(rec.active);
      p.overhead_pct =
          100.0 * (p.cpu_seconds - baseline_cpu) / baseline_cpu;
      p.outputs_identical = SameOutputs(*baseline_outputs,
                                        cell->result.outputs);
    }
    points.push_back(p);
  }

  std::printf("%-10s %10s %14s %10s %12s %14s %10s %10s\n", "interval",
              "wall (s)", "sim cpu (s)", "overhead", "snapshots",
              "state bytes", "answers", "per-tuple");
  for (const IntervalPoint& p : points) {
    std::printf("%-10s %10.3f %14.4f %9.2f%% %12llu %14llu %10s %10s\n",
                p.interval == 0 ? "off" : std::to_string(p.interval).c_str(),
                p.wall_s, p.cpu_seconds, p.overhead_pct,
                static_cast<unsigned long long>(p.checkpoints),
                static_cast<unsigned long long>(p.checkpoint_bytes),
                p.outputs_identical ? "identical" : "MISMATCH",
                p.matches_per_tuple ? "identical" : "MISMATCH");
  }

  bool default_ok = true;
  bool answers_ok = true;
  bool paths_ok = true;
  for (const IntervalPoint& p : points) {
    if (p.interval == kDefaultInterval && p.overhead_pct >= 5.0) {
      default_ok = false;
    }
    answers_ok = answers_ok && p.outputs_identical;
    paths_ok = paths_ok && p.matches_per_tuple;
  }
  std::printf("\ndefault interval (%llu) overhead < 5%%: %s\n",
              static_cast<unsigned long long>(kDefaultInterval),
              default_ok ? "yes" : "NO");
  std::printf("batched model numbers equal per-tuple at every interval: %s\n",
              paths_ok ? "yes" : "NO");

  const char* path = "BENCH_checkpoint.json";
  FILE* f = std::fopen(path, "w");
  SP_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f,
               "{\n"
               "  \"workload\": \"sec6.1 simple_agg\",\n"
               "  \"hosts\": %d,\n"
               "  \"trace_tuples\": %zu,\n"
               "  \"default_interval\": %llu,\n"
               "  \"intervals\": [\n",
               kHosts, runner.trace().size(),
               static_cast<unsigned long long>(kDefaultInterval));
  for (size_t i = 0; i < points.size(); ++i) {
    const IntervalPoint& p = points[i];
    std::fprintf(
        f,
        "    {\"interval\": %llu, \"wall_s\": %.4f, \"cpu_seconds\": %.6f, "
        "\"overhead_pct\": %.3f, \"checkpoints\": %llu, "
        "\"ops_serialized\": %llu, \"ops_skipped\": %llu, "
        "\"checkpoint_bytes\": %llu, \"outputs_identical\": %s}%s\n",
        static_cast<unsigned long long>(p.interval), p.wall_s, p.cpu_seconds,
        p.overhead_pct, static_cast<unsigned long long>(p.checkpoints),
        static_cast<unsigned long long>(p.ops_serialized),
        static_cast<unsigned long long>(p.ops_skipped),
        static_cast<unsigned long long>(p.checkpoint_bytes),
        p.outputs_identical ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"default_overhead_lt_5pct\": %s,\n"
               "  \"outputs_identical\": %s\n"
               "}\n",
               default_ok ? "true" : "false", answers_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return default_ok && answers_ok && paths_ok ? 0 : 1;
}
