/// \file columnar_exec_test.cc
/// \brief Three-way differential battery for the columnar execution path.
///
/// The columnar path (PushColumns / DoPushColumns / EmitColumns, selected by
/// ExecMode::kColumnar) is a pure optimization over the per-tuple and
/// row-batch paths, which are kept intact as differential oracles. The
/// contract under test is strict, at three levels:
///
///  * operator level — every operator produces the same output sequence and
///    accounts the same OpStats under per-tuple, row-batch, and columnar
///    delivery, across batch sizes, late tuples, and fallback shapes;
///  * engine level — LocalEngine::PushSourceColumns matches PushSource and
///    PushSourceBatch query-for-query, counters included;
///  * cluster level — ExperimentRunner::RunCell with exec_mode tuple, batch,
///    and columnar produces byte-identical RunLedgers (ToJsonl and
///    ToSummaryJson) over the §6.1 workloads and the golden fault /
///    recovery / overload scenarios.
///
/// Columnar instruments (col_*) are advisory precisely so this byte-identity
/// holds; the battery also pins that exclusion.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dist/experiment.h"
#include "exec/local_engine.h"
#include "exec/sliding.h"
#include "optimizer/optimizer.h"
#include "tests/test_util.h"
#include "trace/trace_gen.h"

namespace streampart {
namespace {

using Mode = OptimizerOptions::PartialAggMode;
using ::streampart::testing::Drive;
using ::streampart::testing::ExpectSameMultiset;
using ::streampart::testing::ExpectSameSequence;
using ::streampart::testing::ExpectStatsEqual;
using ::streampart::testing::MakePacket;
using ::streampart::testing::Outcome;

TupleBatch SmallTrace(uint32_t duration_sec = 4, uint32_t pps = 2000) {
  return testing::MakeSmallTrace(duration_sec, pps);
}

// ---------------------------------------------------------------------------
// Operator-level three-way differentials
// ---------------------------------------------------------------------------

class ColumnarExecTest : public ::testing::Test {
 protected:
  ColumnarExecTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {}

  QueryNodePtr Node(const std::string& name, const std::string& gsql) {
    Status st = graph_.AddQuery(name, gsql);
    SP_CHECK(st.ok()) << st.ToString();
    return *graph_.GetQuery(name);
  }

  Outcome RunOp(const QueryNodePtr& node, const TupleBatch& input,
                size_t batch_size, ExecMode mode) {
    auto op = MakeOperator(node, &UdafRegistry::Default());
    SP_CHECK(op.ok()) << op.status().ToString();
    return Drive(op->get(), input, batch_size, mode);
  }

  /// Per-tuple reference vs row-batch vs columnar at several batch sizes:
  /// exact output sequence and every counter must match.
  void ExpectThreeWayIdentity(const QueryNodePtr& node,
                              const TupleBatch& input) {
    Outcome reference = RunOp(node, input, 0, ExecMode::kTuple);
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (ExecMode mode : {ExecMode::kBatch, ExecMode::kColumnar}) {
        std::string ctx = node->name + " @batch=" +
                          std::to_string(batch_size) + " mode=" +
                          ExecModeToString(mode);
        Outcome run = RunOp(node, input, batch_size, mode);
        ExpectSameSequence(reference.out, run.out, ctx);
        ExpectStatsEqual(reference.stats, run.stats, ctx);
      }
    }
  }

  Catalog catalog_;
  QueryGraph graph_;
};

TEST_F(ColumnarExecTest, Section61AggregateThreeWayIdentity) {
  // The §6.1 suspicious-flows aggregation: five group columns, three
  // aggregates (one a non-trivial UDAF), HAVING — the columnar aggregate
  // kernel's key-packing fast path end to end.
  QueryNodePtr node = Node(
      "suspicious",
      "SELECT tb, srcIP, destIP, srcPort, destPort, "
      "OR_AGGR(flags) as orflag, COUNT(*) as cnt, SUM(len) as bytes "
      "FROM TCP GROUP BY time as tb, srcIP, destIP, srcPort, destPort "
      "HAVING OR_AGGR(flags) = 41");
  ExpectThreeWayIdentity(node, SmallTrace());
}

TEST_F(ColumnarExecTest, CnfFilterProjectThreeWayIdentity) {
  // Multi-clause CNF WHERE: the clause-at-a-time selection-vector filter,
  // with the construction-time cost reordering active, plus projection
  // expressions running through ColumnEvaluator.
  QueryNodePtr node = Node(
      "web",
      "SELECT time, srcIP, destIP, len * 2 as dlen FROM TCP "
      "WHERE destPort = 80 and len > 200 and protocol = 6");
  ExpectThreeWayIdentity(node, SmallTrace());
}

TEST_F(ColumnarExecTest, ExpressionGroupKeysThreeWayIdentity) {
  // Group keys that are genuine expressions: the columnar kernel must route
  // them through ColumnEvaluator rather than the raw-column fast path.
  QueryNodePtr node = Node(
      "subnet",
      "SELECT tb, sub, COUNT(*) as cnt, SUM(len) as bytes FROM TCP "
      "GROUP BY time/2 as tb, srcIP & 0xFFFFFFF0 as sub");
  ExpectThreeWayIdentity(node, SmallTrace());
}

TEST_F(ColumnarExecTest, AggregateArgExpressionsThreeWayIdentity) {
  QueryNodePtr node = Node(
      "weighted",
      "SELECT tb, srcIP, SUM(len * 8) as bits, MAX(len) as maxlen FROM TCP "
      "WHERE len > 64 GROUP BY time as tb, srcIP");
  ExpectThreeWayIdentity(node, SmallTrace());
}

TEST_F(ColumnarExecTest, LateTuplesDroppedIdenticallyInAllModes) {
  QueryNodePtr node = Node(
      "counts",
      "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time as tb, srcIP");
  // Unordered input: a straggler from a closed epoch must be dropped (and
  // counted in late_tuples) identically whether it arrives per-tuple,
  // mid-row-batch, or mid-selection-vector.
  TupleBatch input = {
      MakePacket(0, 0xA, 1, 1, 1, 10), MakePacket(0, 0xB, 1, 1, 1, 10),
      MakePacket(1, 0xA, 1, 1, 1, 10), MakePacket(0, 0xC, 1, 1, 1, 10),
      MakePacket(1, 0xB, 1, 1, 1, 10), MakePacket(2, 0xA, 1, 1, 1, 10),
      MakePacket(1, 0xC, 1, 1, 1, 10), MakePacket(2, 0xB, 1, 1, 1, 10),
  };
  Outcome reference = RunOp(node, input, 0, ExecMode::kTuple);
  ASSERT_GT(reference.stats.late_tuples, 0u) << "test input must be unordered";
  ExpectThreeWayIdentity(node, input);
}

TEST_F(ColumnarExecTest, SlidingAggregateThreeWayIdentity) {
  QueryNodePtr node = Node(
      "sliding",
      "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as bytes FROM TCP "
      "GROUP BY time as tb, srcIP");
  TupleBatch input = SmallTrace(/*duration_sec=*/8, /*pps=*/500);
  auto make = [&] {
    auto op = SlidingAggregateOp::Make(node, &UdafRegistry::Default(),
                                       SlidingSpec{3, 1});
    SP_CHECK(op.ok()) << op.status().ToString();
    return std::move(*op);
  };
  auto ref_op = make();
  Outcome reference = Drive(ref_op.get(), input, 0, ExecMode::kTuple);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (ExecMode mode : {ExecMode::kBatch, ExecMode::kColumnar}) {
      std::string ctx = std::string("sliding @batch=") +
                        std::to_string(batch_size) + " mode=" +
                        ExecModeToString(mode);
      auto op = make();
      Outcome run = Drive(op.get(), input, batch_size, mode);
      ExpectSameSequence(reference.out, run.out, ctx);
      ExpectStatsEqual(reference.stats, run.stats, ctx);
    }
  }
}

TEST_F(ColumnarExecTest, MixedDeliveryModesInterleaveCleanly) {
  // One operator fed through all three entry points in turn: the columnar
  // state (open windows, packed keys) must be indistinguishable from the
  // row paths' at every switch point.
  QueryNodePtr node = Node(
      "mixed",
      "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as bytes FROM TCP "
      "GROUP BY time as tb, srcIP");
  TupleBatch input = SmallTrace();
  Outcome reference = RunOp(node, input, 0, ExecMode::kTuple);

  auto op = MakeOperator(node, &UdafRegistry::Default());
  ASSERT_OK(op.status());
  Outcome mixed;
  (*op)->AddSink([&mixed](const Tuple& t) { mixed.out.push_back(t); });
  TupleSpan all(input);
  ColumnBatch columns;
  SelectionVector sel;
  size_t off = 0;
  int turn = 0;
  while (off < all.size()) {
    size_t n = std::min<size_t>(97, all.size() - off);
    TupleSpan chunk = all.subspan(off, n);
    switch (turn++ % 3) {
      case 0:
        for (const Tuple& t : chunk) (*op)->Push(0, t);
        break;
      case 1:
        (*op)->PushBatch(0, chunk);
        break;
      default:
        ASSERT_TRUE(columns.FromTuples(chunk));
        IdentitySelection(chunk.size(), &sel);
        (*op)->PushColumns(0, columns, sel);
        break;
    }
    off += n;
  }
  (*op)->Finish(0);
  mixed.stats = (*op)->stats();
  ExpectSameSequence(reference.out, mixed.out, "mixed delivery");
  ExpectStatsEqual(reference.stats, mixed.stats, "mixed delivery");
}

TEST_F(ColumnarExecTest, StringStreamsFallBackToRowPath) {
  // A stream with a string column is not columnar-representable: FromTuples
  // must refuse it and the driver fall back to PushBatch, with identical
  // results. (Inside operators the same batches take the generic group-key
  // path — already covered by the batch battery; here we pin the columnar
  // entry's refusal.)
  Catalog catalog;
  ASSERT_OK(catalog.RegisterStream(
      "LOG",
      Schema::Make({{"time", DataType::kUint, TemporalOrder::kIncreasing},
                    {"tag", DataType::kString, TemporalOrder::kNone},
                    {"len", DataType::kUint, TemporalOrder::kNone}})));
  QueryGraph graph(&catalog);
  ASSERT_OK(graph.AddQuery(
      "tag_stats",
      "SELECT tb, tag, COUNT(*) as c, SUM(len) as bytes FROM LOG "
      "GROUP BY time as tb, tag"));
  QueryNodePtr node = *graph.GetQuery("tag_stats");

  TupleBatch input;
  for (int i = 0; i < 200; ++i) {
    Tuple t;
    t.Append(Value::Uint(i / 50));
    t.Append(Value::String(i % 3 == 0 ? "alpha" : "beta"));
    t.Append(Value::Uint(40 + i % 7));
    input.push_back(std::move(t));
  }
  ColumnBatch probe;
  EXPECT_FALSE(probe.FromTuples(TupleSpan(input)));

  auto ref = MakeOperator(node, &UdafRegistry::Default());
  ASSERT_OK(ref.status());
  Outcome reference = Drive(ref->get(), input, 0, ExecMode::kTuple);
  auto col = MakeOperator(node, &UdafRegistry::Default());
  ASSERT_OK(col.status());
  Outcome columnar = Drive(col->get(), input, 64, ExecMode::kColumnar);
  ExpectSameSequence(reference.out, columnar.out, "string fallback");
  ExpectStatsEqual(reference.stats, columnar.stats, "string fallback");
}

// ---------------------------------------------------------------------------
// Engine-level three-way differentials
// ---------------------------------------------------------------------------

class ColumnarEngineTest : public ::testing::Test {
 protected:
  ColumnarEngineTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {}

  void AddWorkload() {
    ASSERT_OK(graph_.AddQuery(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as bytes FROM TCP "
        "GROUP BY time as tb, srcIP"));
    ASSERT_OK(graph_.AddQuery(
        "web",
        "SELECT time, srcIP, len FROM TCP WHERE destPort = 80 and len > 100"));
    // A join consumes columnar deliveries through the default materializing
    // fallback (no columnar kernel) — the fallback's accounting is part of
    // the contract.
    ASSERT_OK(graph_.AddQuery(
        "heavy_join",
        "SELECT f.tb, f.srcIP, f.bytes, w.len FROM flows f, web w "
        "WHERE f.srcIP = w.srcIP and f.tb = w.time"));
  }

  struct EngineRun {
    std::map<std::string, TupleBatch> results;
    std::map<std::string, OpStats> stats;
  };

  EngineRun Run(const TupleBatch& trace, ExecMode mode) {
    LocalEngine::Options options;
    options.collect_all = true;
    LocalEngine engine(&graph_, options);
    SP_CHECK(engine.Build().ok());
    TupleSpan all(trace);
    if (mode == ExecMode::kTuple) {
      for (const Tuple& t : trace) engine.PushSource("TCP", t);
    } else {
      for (size_t off = 0; off < all.size(); off += kDefaultSourceBatch) {
        TupleSpan chunk = all.subspan(
            off, std::min(kDefaultSourceBatch, all.size() - off));
        if (mode == ExecMode::kColumnar) {
          engine.PushSourceColumns("TCP", chunk);
        } else {
          engine.PushSourceBatch("TCP", chunk);
        }
      }
    }
    engine.FinishSources();
    EngineRun run;
    for (const std::string q : {"flows", "web", "heavy_join"}) {
      run.results[q] = engine.Results(q);
      auto st = engine.StatsFor(q);
      SP_CHECK(st.ok());
      run.stats[q] = *st;
    }
    return run;
  }

  Catalog catalog_;
  QueryGraph graph_;
};

TEST_F(ColumnarEngineTest, EngineResultsAndCountersAgreeAcrossModes) {
  AddWorkload();
  TupleBatch trace = SmallTrace();
  EngineRun tuple = Run(trace, ExecMode::kTuple);
  EngineRun batch = Run(trace, ExecMode::kBatch);
  EngineRun columnar = Run(trace, ExecMode::kColumnar);
  for (const std::string q : {"flows", "web", "heavy_join"}) {
    ExpectSameSequence(tuple.results[q], batch.results[q], q + " batch");
    ExpectSameSequence(tuple.results[q], columnar.results[q], q + " columnar");
    ExpectStatsEqual(tuple.stats[q], batch.stats[q], q + " batch");
    ExpectStatsEqual(tuple.stats[q], columnar.stats[q], q + " columnar");
  }
}

TEST_F(ColumnarEngineTest, PrebuiltColumnsWithPartialSelectionMatchRows) {
  AddWorkload();
  TupleBatch trace = SmallTrace();
  // Reference: the even-indexed rows, delivered as a row batch.
  TupleBatch evens;
  for (size_t i = 0; i < trace.size(); i += 2) evens.push_back(trace[i]);

  LocalEngine::Options options;
  options.collect_all = true;
  LocalEngine row_engine(&graph_, options);
  ASSERT_OK(row_engine.Build());
  row_engine.PushSourceBatch("TCP", TupleSpan(evens));
  row_engine.FinishSources();

  // Columnar: the full batch with a selection naming only the even rows —
  // the engine must deliver exactly the selected rows.
  LocalEngine col_engine(&graph_, options);
  ASSERT_OK(col_engine.Build());
  ColumnBatch columns;
  ASSERT_TRUE(columns.FromTuples(TupleSpan(trace)));
  SelectionVector sel;
  for (size_t i = 0; i < trace.size(); i += 2) {
    sel.push_back(static_cast<uint32_t>(i));
  }
  col_engine.PushSourceColumns("TCP", columns, sel);
  col_engine.FinishSources();

  for (const std::string q : {"flows", "web", "heavy_join"}) {
    ExpectSameSequence(row_engine.Results(q), col_engine.Results(q), q);
    auto a = row_engine.StatsFor(q);
    auto b = col_engine.StatsFor(q);
    ASSERT_OK(a.status());
    ASSERT_OK(b.status());
    ExpectStatsEqual(*a, *b, q);
  }
}

// ---------------------------------------------------------------------------
// Cluster-level ledger byte-identity
// ---------------------------------------------------------------------------

ExperimentConfig Config(const std::string& name, const std::string& ps,
                        Mode partial, bool pushdown) {
  return testing::MakeExperimentConfig(name, ps, partial, pushdown);
}

FaultPlan Plan(const std::string& text) {
  return testing::ParseFaultPlan(text);
}

struct ClusterRun {
  ClusterRunResult result;
  RunLedger ledger;
};

/// Runs \p trace through a fresh cluster under \p exec_mode, mirroring
/// ExperimentRunner::RunCell (plan attached when non-trivial).
ClusterRun RunClusterMode(const QueryGraph& graph,
                          const ExperimentConfig& config, int num_hosts,
                          const TupleBatch& trace, ExecMode exec_mode) {
  ClusterConfig cluster;
  cluster.num_hosts = num_hosts;
  cluster.partitions_per_host = 2;
  auto plan =
      OptimizeForPartitioning(graph, cluster, config.ps, config.optimizer);
  SP_CHECK(plan.ok()) << plan.status().ToString();
  ClusterRuntime runtime(&graph, &*plan, cluster);
  runtime.set_exec_mode(exec_mode);
  if (config.faults.armed()) {
    runtime.set_fault_plan(config.faults);
  }
  Status st = runtime.Build(config.ps);
  SP_CHECK(st.ok()) << st.ToString();
  TupleSpan all(trace);
  for (size_t off = 0; off < all.size(); off += kDefaultSourceBatch) {
    runtime.PushSourceBatch(
        "TCP", all.subspan(off, std::min(kDefaultSourceBatch,
                                         all.size() - off)));
  }
  runtime.FinishSources();
  ClusterRun run;
  run.result = runtime.result();
  run.ledger = runtime.MakeLedger(CpuCostParams(), 4.0);
  return run;
}

class ColumnarClusterTest : public ::testing::Test {
 protected:
  ColumnarClusterTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {}

  void AddFlows() {
    ASSERT_OK(graph_.AddQuery(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as bytes FROM TCP "
        "GROUP BY time as tb, srcIP"));
  }

  /// Ledger byte-identity of the batch and columnar runs against the
  /// per-tuple oracle, plus multiset-equal sink outputs.
  void ExpectThreeWayLedgers(const ExperimentConfig& config, int num_hosts,
                             const TupleBatch& trace,
                             const std::string& label) {
    ClusterRun oracle =
        RunClusterMode(graph_, config, num_hosts, trace, ExecMode::kTuple);
    for (ExecMode mode : {ExecMode::kBatch, ExecMode::kColumnar}) {
      std::string ctx = label + " mode=" + ExecModeToString(mode);
      ClusterRun run =
          RunClusterMode(graph_, config, num_hosts, trace, mode);
      EXPECT_EQ(oracle.ledger.ToJsonl(), run.ledger.ToJsonl()) << ctx;
      EXPECT_EQ(oracle.ledger.ToSummaryJson(), run.ledger.ToSummaryJson())
          << ctx;
      ASSERT_EQ(oracle.result.outputs.size(), run.result.outputs.size())
          << ctx;
      for (const auto& [name, batch] : oracle.result.outputs) {
        ExpectSameMultiset(batch, run.result.outputs.at(name), ctx + name);
      }
    }
  }

  Catalog catalog_;
  QueryGraph graph_;
};

TEST_F(ColumnarClusterTest, HealthyConfigsLedgerIdenticalAcrossModes) {
  AddFlows();
  TupleBatch trace = SmallTrace();
  ExpectThreeWayLedgers(Config("Naive", "", Mode::kPerPartition, false), 4,
                        trace, "naive");
  ExpectThreeWayLedgers(
      Config("Partitioned", "srcIP, destIP", Mode::kPerHost, true), 3, trace,
      "partitioned");
  ExpectThreeWayLedgers(Config("Partial", "destIP", Mode::kPerHost, true), 3,
                        trace, "partial");
}

TEST_F(ColumnarClusterTest, GoldenFaultScenariosLedgerIdenticalAcrossModes) {
  AddFlows();
  TupleBatch trace = SmallTrace();
  // The golden fault/recovery scenarios of the fault battery: a lossy
  // reordering channel, a mid-run kill with recovery off, and checkpointed
  // recovery under loss. Armed controllers force per-tuple execution in
  // every mode, so identity must be exact — the point is that requesting
  // columnar can never change a faulted run's ledger.
  const struct {
    const char* label;
    const char* plan;
  } kScenarios[] = {
      {"lossy", "seed 3\nchannel from=* to=* drop=0.2 dup=0.1 reorder=0.3 "
                "queue=32"},
      {"kill-norecover", "recover off\nkill host=2 epoch=2"},
      {"ckpt-kill", "ckpt 4\nkill host=1 epoch=2"},
      {"ckpt-lossy", "seed 7\nckpt 2\nchannel from=* to=* drop=0.15 dup=0.1 "
                     "queue=32"},
  };
  ExperimentConfig base =
      Config("Partitioned", "srcIP, destIP", Mode::kPerHost, true);
  for (const auto& scenario : kScenarios) {
    ExperimentConfig config = base;
    config.faults = Plan(scenario.plan);
    ExpectThreeWayLedgers(config, 3, trace, scenario.label);
  }
}

TEST_F(ColumnarClusterTest, OverloadScenariosLedgerIdenticalAcrossModes) {
  AddFlows();
  TupleBatch trace = SmallTrace();
  ExperimentConfig base =
      Config("Partitioned", "srcIP, destIP", Mode::kPerHost, true);
  for (const char* plan :
       {"budget host=* cycles=1e15 queue=8 reserve=0.5\n",
        "budget host=* cycles=1e15 queue=8 reserve=0.5\nshed m=4\n"}) {
    ExperimentConfig config = base;
    config.faults = Plan(plan);
    ExpectThreeWayLedgers(config, 3, trace, std::string("overload:") + plan);
  }
}

TEST_F(ColumnarClusterTest, RunCellExecModeMatchesDirectRuns) {
  // The experiment harness plumbs exec_mode through to the runtime: RunCell
  // under all three modes must produce byte-identical ledgers (this is the
  // §6 sweep the benches and figures drive).
  AddFlows();
  TraceConfig tc;
  tc.duration_sec = 4;
  tc.packets_per_sec = 1000;
  tc.num_flows = 300;
  ExperimentRunner runner(&graph_, "TCP", tc, CpuCostParams());
  ExperimentConfig config =
      Config("Partitioned", "srcIP, destIP", Mode::kPerHost, true);
  auto tuple =
      runner.RunCell(config, 3, 2, kDefaultSourceBatch, {}, ExecMode::kTuple);
  auto batch =
      runner.RunCell(config, 3, 2, kDefaultSourceBatch, {}, ExecMode::kBatch);
  auto columnar = runner.RunCell(config, 3, 2, kDefaultSourceBatch, {},
                                 ExecMode::kColumnar);
  ASSERT_OK(tuple.status());
  ASSERT_OK(batch.status());
  ASSERT_OK(columnar.status());
  EXPECT_EQ(tuple->ledger.ToJsonl(), batch->ledger.ToJsonl());
  EXPECT_EQ(tuple->ledger.ToJsonl(), columnar->ledger.ToJsonl());
  EXPECT_EQ(tuple->ledger.ToSummaryJson(), columnar->ledger.ToSummaryJson());
}

TEST_F(ColumnarClusterTest, ColumnarInstrumentsStayOutOfTheLedger) {
  // col_* instruments are advisory: default ledgers must not mention them
  // (that exclusion is what makes three-way byte-identity possible), and an
  // advisory-included telemetry ledger must show the columnar path actually
  // ran (col_rows_in > 0 somewhere).
  AddFlows();
  TupleBatch trace = SmallTrace();
  ExperimentConfig config =
      Config("Partitioned", "srcIP, destIP", Mode::kPerHost, true);
  ClusterRun run =
      RunClusterMode(graph_, config, 3, trace, ExecMode::kColumnar);
  EXPECT_EQ(run.ledger.ToJsonl().find("col_"), std::string::npos);

  TraceConfig tc;
  tc.duration_sec = 4;
  tc.packets_per_sec = 1000;
  tc.num_flows = 300;
  ExperimentRunner runner(&graph_, "TCP", tc, CpuCostParams());
  RunLedgerOptions advisory;
  advisory.include_advisory = true;
  auto cell = runner.RunCell(config, 3, 2, kDefaultSourceBatch, advisory,
                             ExecMode::kColumnar);
  ASSERT_OK(cell.status());
  if (StatsRegistry::kCompiledIn) {
    EXPECT_NE(cell->ledger.ToJsonl().find("col_rows_in"), std::string::npos);
  }
}

}  // namespace
}  // namespace streampart
