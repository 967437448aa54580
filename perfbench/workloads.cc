#include "workloads.h"

namespace perfbench {

using streampart::OptimizerOptions;
using streampart::TraceConfig;

const char kQueryGsql[] =
    "SELECT tb, srcIP, destIP, srcPort, destPort, "
    "OR_AGGR(flags) as orflag, COUNT(*) as cnt, SUM(len) as bytes "
    "FROM TCP "
    "GROUP BY time as tb, srcIP, destIP, srcPort, destPort "
    "HAVING OR_AGGR(flags) = 41";

TraceConfig FigureTrace(uint64_t seed) {
  TraceConfig tc;
  tc.seed = seed;
  tc.duration_sec = 30;
  tc.packets_per_sec = 20000;
  tc.num_flows = 4000;
  tc.suspicious_fraction = 0.05;
  return tc;
}

namespace {

std::vector<Workload> MakeWorkloads() {
  // Fig 8's "Partitioned": compatible operators pushed onto the leaves.
  Workload hash;
  hash.name = "agg_hash";
  hash.expected_set = "srcIP, destIP, srcPort, destPort";
  hash.optimizer.enable_compatible_pushdown = true;
  hash.optimizer.partial_agg = OptimizerOptions::PartialAggMode::kNone;
  hash.anchor_cpu_pct = 17.9;
  hash.anchor_net_tps = 94;

  // Fig 8's "Naive" (round-robin with per-partition partial aggregates) with
  // lossless recovery armed but idle: checkpoints every 4th epoch, no kill.
  // Checkpoint cycles enter the CPU model, so only Fig 9's Naive network
  // anchor applies.
  Workload rec;
  rec.name = "agg_recovery";
  rec.optimizer.enable_compatible_pushdown = false;
  rec.optimizer.partial_agg = OptimizerOptions::PartialAggMode::kPerPartition;
  rec.fault_plan = "ckpt 4\n";
  rec.anchor_net_tps = 4691;

  return {hash, rec};
}

const std::vector<Workload>& All() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : All()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : All()) names.push_back(w.name);
  return names;
}

}  // namespace perfbench
