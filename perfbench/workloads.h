#pragma once

/// \file workloads.h
/// \brief The replay benchmark's workloads (see README.md).
///
/// Every workload replays the §6.1 suspicious-flows query over the Figs 8/9
/// trace shape, frozen here so that a change under test cannot move the
/// workload it is judged on. Workloads differ in partitioning, optimizer
/// rules and armed controllers; only the trace seed varies between runs.

#include <cstdint>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "trace/trace_gen.h"

namespace perfbench {

/// The figure benches' trace seed (TraceConfig's default). The paper anchors
/// hold at this seed only.
inline constexpr uint64_t kFigureSeed = 20080609;

/// The §6.1 query: flows whose TCP flags OR to the attack pattern.
inline constexpr const char* kQueryName = "suspicious_flows";
extern const char kQueryGsql[];

/// The Figs 8/9 trace shape (30 s x 20k pkts/s) at \p seed.
streampart::TraceConfig FigureTrace(uint64_t seed);

struct Workload {
  std::string name;
  /// Empty: round-robin. Otherwise the §4 advisor, calibrated on a trace
  /// prefix, picks the partitioning set, and it must pick this one.
  std::string expected_set;
  streampart::OptimizerOptions optimizer;
  /// FaultPlan text; empty leaves every controller unarmed.
  std::string fault_plan;
  /// Figs 8/9 4-host values at kFigureSeed: aggregator CPU % compared at
  /// one decimal (0: not anchored) and aggregator network tuples/s compared
  /// as an integer.
  double anchor_cpu_pct = 0;
  double anchor_net_tps = 0;
};

/// \brief The workload named \p name, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// \brief Names of every workload, in definition order.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench
