/// \file recovery_test.cc
/// \brief Differential battery for lossless recovery (dist/checkpoint.h).
///
/// The headline property is exactly-once: a run that loses a host and
/// traverses lossy channels — but has checkpointing enabled — must produce
/// the same query answers as a fault-free run, on both the per-tuple and the
/// batched execution paths, with every retransmission, duplicate discard,
/// restored byte and replayed tuple accounted in the ledger's `recovery`
/// section. The zero-unrecovered-loss identity closes the books: after a
/// completed run, reliable_sent == reliable_applied and the coordinator is
/// quiesced (no pending or buffered tuples anywhere).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "dist/experiment.h"
#include "partition/advisor.h"
#include "tests/test_util.h"
#include "trace/trace_gen.h"

namespace streampart {
namespace {

using ::streampart::testing::ExpectSameMultiset;
using Mode = OptimizerOptions::PartialAggMode;

ExperimentConfig Config(const std::string& name, const std::string& ps,
                        Mode partial, bool pushdown) {
  ExperimentConfig config;
  config.name = name;
  if (!ps.empty()) {
    auto parsed = PartitionSet::Parse(ps);
    SP_CHECK(parsed.ok());
    config.ps = *parsed;
  }
  config.optimizer.enable_compatible_pushdown = pushdown;
  config.optimizer.partial_agg = partial;
  return config;
}

FaultPlan Plan(const std::string& text) {
  auto plan = FaultPlan::Parse(text);
  SP_CHECK(plan.ok()) << plan.status().ToString();
  return *plan;
}

TupleBatch SmallTrace(uint32_t duration_sec = 6, uint32_t pps = 800) {
  TraceConfig tc;
  tc.duration_sec = duration_sec;
  tc.packets_per_sec = pps;
  tc.num_flows = 300;
  PacketTraceGenerator gen(tc);
  return gen.GenerateAll();
}

/// Result + ledger + recovery verdict of one direct cluster run.
struct RecoveryRun {
  ClusterRunResult result;
  RunLedger ledger;
  bool recovery_attached = false;
  bool quiesced = false;
};

RecoveryRun RunCluster(const QueryGraph& graph, const ExperimentConfig& config,
                       int num_hosts, const TupleBatch& trace,
                       size_t batch_size, double duration_sec,
                       bool attach_plan, ExecMode mode = ExecMode::kBatch) {
  ClusterConfig cluster;
  cluster.num_hosts = num_hosts;
  cluster.partitions_per_host = 2;
  auto plan =
      OptimizeForPartitioning(graph, cluster, config.ps, config.optimizer);
  SP_CHECK(plan.ok()) << plan.status().ToString();
  ClusterRuntime runtime(&graph, &*plan, cluster);
  runtime.set_exec_mode(mode);
  if (attach_plan) runtime.set_fault_plan(config.faults);
  Status st = runtime.Build(config.ps);
  SP_CHECK(st.ok()) << st.ToString();
  if (batch_size == 0) {
    for (const Tuple& t : trace) runtime.PushSource("TCP", t);
  } else {
    TupleSpan all(trace);
    for (size_t off = 0; off < all.size(); off += batch_size) {
      runtime.PushSourceBatch(
          "TCP", all.subspan(off, std::min(batch_size, all.size() - off)));
    }
  }
  runtime.FinishSources();
  RecoveryRun run{runtime.result(),
                  runtime.MakeLedger(CpuCostParams(), duration_sec)};
  const RecoveryCoordinator* rec = runtime.recovery_coordinator();
  run.recovery_attached = rec != nullptr;
  run.quiesced = rec != nullptr && rec->Quiesced();
  return run;
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {}

  void AddFlows() {
    ASSERT_OK(graph_.AddQuery(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as bytes FROM TCP "
        "GROUP BY time as tb, srcIP"));
  }

  Catalog catalog_;
  QueryGraph graph_;
};

// ---------------------------------------------------------------------------
// Headline differential: kill + lossy channels + checkpoints == healthy run
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, KillAndLossyChannelsRecoverExactlyOnceOnBothPaths) {
  AddFlows();
  TupleBatch trace = SmallTrace();
  // Per-host partial aggregation puts stateful operators on every host, so
  // the killed host has windows in flight that only a snapshot + replay can
  // reconstruct.
  ExperimentConfig healthy_config =
      Config("Optimized", "srcIP", Mode::kPerHost, true);
  ExperimentConfig faulty_config = healthy_config;
  // Checkpoint every 2 epochs; kill mid-interval (epoch 3) so recovery needs
  // BOTH the epoch-2 snapshot and a delivery-log replay of the tail; degrade
  // every channel so the acked edges retransmit through real loss.
  faulty_config.faults = Plan(
      "seed 7\n"
      "ckpt 2\n"
      "kill host=1 epoch=3\n"
      "channel from=* to=* drop=0.15 dup=0.05 reorder=0.2 queue=48\n");

  RecoveryRun healthy = RunCluster(graph_, healthy_config, 3, trace, 0, 6.0,
                                   /*attach_plan=*/false);
  std::string first_jsonl;
  for (size_t batch_size : {size_t{0}, kDefaultSourceBatch}) {
    std::string ctx = "@batch=" + std::to_string(batch_size);
    RecoveryRun faulty = RunCluster(graph_, faulty_config, 3, trace,
                                    batch_size, 6.0, /*attach_plan=*/true);
    ASSERT_EQ(faulty.result.dead_hosts, std::vector<int>{1}) << ctx;

    // The query answer is byte-equal to the fault-free run's.
    EXPECT_EQ(faulty.result.source_tuples, trace.size()) << ctx;
    for (const auto& [name, expected] : healthy.result.outputs) {
      ExpectSameMultiset(expected, faulty.result.outputs.at(name),
                         ctx + " / " + name);
    }

    // Nothing was lost, anywhere: no source tuple hit a dead partition, no
    // cross-host delivery vanished, and the acked edges closed their books.
    const FaultSection& faults = faulty.ledger.faults();
    ASSERT_TRUE(faults.active) << ctx;
    EXPECT_EQ(faults.source_tuples_lost, 0u) << ctx;
    EXPECT_EQ(faults.net_tuples_lost, 0u) << ctx;
    const RecoverySection& rec = faulty.ledger.recovery();
    ASSERT_TRUE(rec.active) << ctx;
    EXPECT_EQ(rec.checkpoint_interval, 2u) << ctx;
    EXPECT_GT(rec.checkpoints, 0u) << ctx;
    EXPECT_GT(rec.checkpoint_bytes, 0u) << ctx;
    EXPECT_GT(rec.ops_migrated, 0u) << ctx;
    EXPECT_GT(rec.restores, 0u) << ctx;
    EXPECT_GT(rec.restored_bytes, 0u) << ctx;
    EXPECT_GT(rec.replayed_tuples, 0u)
        << ctx << ": mid-interval kill must replay the post-snapshot tail";
    EXPECT_GT(rec.retx_sent, 0u) << ctx;
    EXPECT_GT(rec.reliable_sent, 0u) << ctx;
    EXPECT_EQ(rec.reliable_sent, rec.reliable_applied) << ctx;
    EXPECT_TRUE(faulty.quiesced) << ctx;

    // Retransmissions are visible on the degraded channels themselves, and
    // conservation still holds row by row (each retransmission is a fresh
    // send, not an exemption).
    uint64_t channel_retx = 0;
    for (const FaultChannelRow& row : faults.channels) {
      channel_retx += row.retransmitted;
      EXPECT_EQ(row.delivered + row.dropped + row.queue_dropped,
                row.sent + row.dup_extras)
          << ctx << " channel " << row.from_host << "->" << row.to_host;
    }
    EXPECT_GT(channel_retx, 0u) << ctx;

    // Channel faults draw per send, so the batched path degenerates to
    // per-tuple delivery and the two paths must agree to the byte — ledger
    // included.
    if (first_jsonl.empty()) {
      first_jsonl = faulty.ledger.ToJsonl();
      EXPECT_NE(first_jsonl.find("\"record\":\"recovery\""), std::string::npos);
    } else {
      EXPECT_EQ(first_jsonl, faulty.ledger.ToJsonl()) << ctx;
    }
  }
}

// ---------------------------------------------------------------------------
// Armed recovery on the batched route: epoch slices equal per-tuple delivery
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, ArmedRecoveryBatchedRouteMatchesPerTupleToTheByte) {
  AddFlows();
  TupleBatch trace = SmallTrace();
  // Checkpoints and kills act only at epoch boundaries, so these plans route
  // source batches as epoch slices and cross every acked edge as spans. The
  // kTuple oracle routes the same plan tuple by tuple, sinks included.
  struct PlanCase {
    ExperimentConfig config;
    std::vector<int> stateful_hosts;  // hosts running a stateful operator
  };
  const PlanCase plans[] = {
      {Config("Naive", "", Mode::kPerPartition, false), {0, 1, 2}},
      {Config("PerHost", "srcIP", Mode::kPerHost, true), {0, 1, 2}},
      {Config("Central", "srcIP", Mode::kNone, false), {0}},
  };
  struct FaultCase {
    const char* plan;
    int killed;  // -1: no kill
  };
  const FaultCase faults[] = {
      {"ckpt 1", -1},
      {"ckpt 2\nepoch_width 2", -1},
      {"ckpt 4", -1},
      {"ckpt 2\nkill host=1 epoch=3", 1},
      {"ckpt 4\nkill host=1 epoch=2", 1},
      {"ckpt 3\nkill host=0 epoch=4", 0},
  };
  for (const PlanCase& pc : plans) {
    RecoveryRun healthy = RunCluster(graph_, pc.config, 3, trace, 0, 6.0,
                                     /*attach_plan=*/false);
    for (const FaultCase& fc : faults) {
      ExperimentConfig armed = pc.config;
      armed.faults = Plan(fc.plan);
      RecoveryRun oracle = RunCluster(graph_, armed, 3, trace, 0, 6.0,
                                      /*attach_plan=*/true, ExecMode::kTuple);
      const bool expect_replay =
          fc.killed >= 0 &&
          std::count(pc.stateful_hosts.begin(), pc.stateful_hosts.end(),
                     fc.killed) > 0;
      for (size_t batch_size : {size_t{7}, size_t{64}, kDefaultSourceBatch}) {
        std::string ctx = pc.config.name + " / " + fc.plan +
                          " @batch=" + std::to_string(batch_size);
        RecoveryRun run = RunCluster(graph_, armed, 3, trace, batch_size, 6.0,
                                     /*attach_plan=*/true);
        EXPECT_EQ(oracle.ledger.ToJsonl(), run.ledger.ToJsonl()) << ctx;
        for (const auto& [name, expected] : healthy.result.outputs) {
          ExpectSameMultiset(expected, run.result.outputs.at(name),
                             ctx + " / " + name);
        }
        EXPECT_TRUE(run.quiesced) << ctx;
        const RecoverySection& rec = run.ledger.recovery();
        ASSERT_TRUE(rec.active) << ctx;
        EXPECT_GT(rec.checkpoints, 0u) << ctx;
        EXPECT_EQ(rec.reliable_sent, rec.reliable_applied) << ctx;
        EXPECT_EQ(rec.replayed_tuples > 0, expect_replay) << ctx;
        if (fc.killed >= 0) {
          EXPECT_EQ(run.result.dead_hosts, std::vector<int>{fc.killed})
              << ctx;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pure replay: a kill before the first snapshot recovers from the logs alone
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, KillBeforeFirstSnapshotRecoversByReplayAlone) {
  AddFlows();
  TupleBatch trace = SmallTrace();
  ExperimentConfig healthy_config =
      Config("Optimized", "srcIP", Mode::kPerHost, true);
  ExperimentConfig faulty_config = healthy_config;
  // First checkpoint would land at epoch 4; the kill at epoch 2 precedes it,
  // so migration finds no blobs and rebuilds the operators purely from the
  // per-edge delivery logs.
  faulty_config.faults = Plan("ckpt 4\nkill host=1 epoch=2");

  RecoveryRun healthy = RunCluster(graph_, healthy_config, 3, trace, 0, 6.0,
                                   /*attach_plan=*/false);
  RecoveryRun faulty = RunCluster(graph_, faulty_config, 3, trace, 0, 6.0,
                                  /*attach_plan=*/true);
  ASSERT_EQ(faulty.result.dead_hosts, std::vector<int>{1});
  const RecoverySection& rec = faulty.ledger.recovery();
  ASSERT_TRUE(rec.active);
  EXPECT_EQ(rec.restores, 0u) << "no snapshot existed yet";
  EXPECT_EQ(rec.restored_bytes, 0u);
  EXPECT_GT(rec.ops_migrated, 0u);
  EXPECT_GT(rec.replayed_tuples, 0u);
  EXPECT_EQ(rec.reliable_sent, rec.reliable_applied);
  EXPECT_TRUE(faulty.quiesced);
  EXPECT_EQ(faulty.ledger.faults().net_tuples_lost, 0u);
  for (const auto& [name, expected] : healthy.result.outputs) {
    ExpectSameMultiset(expected, faulty.result.outputs.at(name), name);
  }
}

// ---------------------------------------------------------------------------
// Lossy channels without kills: the acked edges alone restore exactly-once
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, LossyChannelsAloneAreHealedByRetransmission) {
  AddFlows();
  TupleBatch trace = SmallTrace();
  ExperimentConfig healthy_config =
      Config("Naive", "", Mode::kPerPartition, false);
  ExperimentConfig faulty_config = healthy_config;
  faulty_config.faults = Plan(
      "seed 11\n"
      "ckpt 2\n"
      "channel from=* to=* drop=0.25 dup=0.1 reorder=0.3 queue=32\n");

  RecoveryRun healthy = RunCluster(graph_, healthy_config, 3, trace, 0, 6.0,
                                   /*attach_plan=*/false);
  RecoveryRun faulty = RunCluster(graph_, faulty_config, 3, trace, 0, 6.0,
                                  /*attach_plan=*/true);
  EXPECT_TRUE(faulty.result.dead_hosts.empty());
  for (const auto& [name, expected] : healthy.result.outputs) {
    ExpectSameMultiset(expected, faulty.result.outputs.at(name), name);
  }
  const RecoverySection& rec = faulty.ledger.recovery();
  ASSERT_TRUE(rec.active);
  EXPECT_GT(rec.retx_sent, 0u) << "25% drop must force retransmissions";
  EXPECT_GT(rec.retx_dup_discarded, 0u)
      << "10% duplication must produce discarded copies";
  EXPECT_EQ(rec.ops_migrated, 0u);
  EXPECT_EQ(rec.replayed_tuples, 0u);
  EXPECT_EQ(rec.reliable_sent, rec.reliable_applied);
  EXPECT_TRUE(faulty.quiesced);
  EXPECT_EQ(faulty.ledger.faults().net_tuples_lost, 0u);

  // Determinism across reruns: same plan, same trace, same bytes.
  RecoveryRun rerun = RunCluster(graph_, faulty_config, 3, trace, 0, 6.0,
                                 /*attach_plan=*/true);
  EXPECT_EQ(faulty.ledger.ToJsonl(), rerun.ledger.ToJsonl());
  EXPECT_EQ(faulty.ledger.ToSummaryJson(), rerun.ledger.ToSummaryJson());
}

// ---------------------------------------------------------------------------
// Checkpoint-only plans: snapshots without faults change answers not at all
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, CheckpointOnlyPlanPreservesAnswersAndSkipsFaultSection) {
  AddFlows();
  TupleBatch trace = SmallTrace(4);
  ExperimentConfig healthy_config = Config("Hash", "srcIP", Mode::kNone, false);
  ExperimentConfig ckpt_config = healthy_config;
  ckpt_config.faults = Plan("ckpt 1");

  RecoveryRun healthy = RunCluster(graph_, healthy_config, 3, trace, 0, 4.0,
                                   /*attach_plan=*/false);
  RecoveryRun snapped = RunCluster(graph_, ckpt_config, 3, trace, 0, 4.0,
                                   /*attach_plan=*/true);
  EXPECT_TRUE(snapped.recovery_attached);
  EXPECT_EQ(healthy.result.source_tuples, snapped.result.source_tuples);
  for (const auto& [name, expected] : healthy.result.outputs) {
    ExpectSameMultiset(expected, snapped.result.outputs.at(name), name);
  }
  // No kill, no channel: the fault section stays inactive (and absent from
  // the ledger), the recovery section is present and clean.
  EXPECT_FALSE(snapped.ledger.faults().active);
  EXPECT_EQ(snapped.ledger.ToJsonl().find("\"record\":\"faults\""),
            std::string::npos);
  const RecoverySection& rec = snapped.ledger.recovery();
  ASSERT_TRUE(rec.active);
  EXPECT_EQ(rec.checkpoints, 3u) << "epochs 1, 2 and 3 each close an interval";
  EXPECT_GT(rec.ops_serialized, 0u);
  EXPECT_GT(rec.checkpoint_bytes, 0u);
  EXPECT_EQ(rec.ops_migrated, 0u);
  EXPECT_EQ(rec.retx_sent, 0u);
  EXPECT_EQ(rec.reliable_sent, rec.reliable_applied);
  EXPECT_GT(rec.checkpoint_cost_cycles, 0.0);
  EXPECT_TRUE(snapped.quiesced);
}

TEST_F(RecoveryTest, EpochWidthCoarsensTheCheckpointStride) {
  AddFlows();
  TupleBatch trace = SmallTrace(4);
  ExperimentConfig config = Config("Hash", "srcIP", Mode::kNone, false);

  // Timestamps 0..3. With width 1 every second closes an interval (3
  // rounds); width 2 folds them into epochs {0,1} (1 round); width 60 never
  // leaves epoch 0, so no snapshot is ever due.
  struct Case {
    uint64_t width;
    uint64_t expected_rounds;
  } cases[] = {{1, 3}, {2, 1}, {60, 0}};
  for (const Case& c : cases) {
    ExperimentConfig cfg = config;
    cfg.faults =
        Plan("ckpt 1\nepoch_width " + std::to_string(c.width) + "\n");
    RecoveryRun run =
        RunCluster(graph_, cfg, 3, trace, 0, 4.0, /*attach_plan=*/true);
    const RecoverySection& rec = run.ledger.recovery();
    ASSERT_TRUE(rec.active) << "width " << c.width;
    EXPECT_EQ(rec.epoch_width, c.width);
    EXPECT_EQ(rec.checkpoints, c.expected_rounds) << "width " << c.width;
  }
}

// ---------------------------------------------------------------------------
// Recovery-aware repartition advice: moving state is not free
// ---------------------------------------------------------------------------

TEST(RecoveryAdvisorTest, StateMovePenaltyKeepsTheIncumbentSet) {
  Catalog catalog = MakeDefaultCatalog();
  QueryGraph graph(&catalog);
  ASSERT_OK(graph.AddQuery(
      "flows", "SELECT tb, srcIP, COUNT(*) as c FROM TCP "
               "GROUP BY time as tb, srcIP"));
  ASSERT_OK_AND_ASSIGN(PartitionSet incumbent, PartitionSet::Parse("destIP"));

  // Unpenalized, the search displaces the (suboptimal) incumbent.
  ASSERT_OK_AND_ASSIGN(RepartitionAdvice plain,
                       AdviseRepartition(graph, incumbent));
  ASSERT_TRUE(plain.changed);
  ASSERT_FALSE(plain.recommended.Equals(incumbent));

  // With survivor state priced in, a challenger must beat the incumbent by
  // more than the amortized move cost — an arbitrarily heavy state load
  // pins the incumbent in place.
  AdvisorOptions heavy;
  heavy.state_move_bytes = 1e15;
  ASSERT_OK_AND_ASSIGN(RepartitionAdvice pinned,
                       AdviseRepartition(graph, incumbent, heavy));
  EXPECT_FALSE(pinned.changed);
  EXPECT_TRUE(pinned.recommended.Equals(incumbent));

  // Amortizing the same load over enough epochs re-enables the switch.
  AdvisorOptions amortized = heavy;
  amortized.state_move_amortize_epochs = 1e18;
  ASSERT_OK_AND_ASSIGN(RepartitionAdvice moved,
                       AdviseRepartition(graph, incumbent, amortized));
  EXPECT_TRUE(moved.changed);
  EXPECT_TRUE(moved.recommended.Equals(plain.recommended));
}

// ---------------------------------------------------------------------------
// Golden-ledger regression for a full recovery scenario
// ---------------------------------------------------------------------------

TEST(RecoveryGoldenTest, LedgerMatchesGoldenFile) {
  if (!StatsRegistry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out: operator records absent";
  }
  Catalog catalog = MakeDefaultCatalog();
  QueryGraph graph(&catalog);
  ASSERT_OK(graph.AddQuery(
      "flows",
      "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as bytes FROM TCP "
      "GROUP BY time as tb, srcIP"));
  TraceConfig tc;
  tc.duration_sec = 4;
  tc.packets_per_sec = 500;
  tc.num_flows = 100;
  ExperimentRunner runner(&graph, "TCP", tc, CpuCostParams());
  ExperimentConfig config =
      Config("recovery_golden", "srcIP", Mode::kNone, false);
  config.faults = Plan(
      "seed 42\n"
      "ckpt 2\n"
      "kill host=1 epoch=3\n"
      "channel from=2 to=0 drop=0.1 dup=0.05 reorder=0.2 queue=64\n");
  ASSERT_OK_AND_ASSIGN(ExperimentCell cell,
                       runner.RunCell(config, 3, 2, /*batch_size=*/0));
  std::string actual = cell.ledger.ToJsonl();

  const std::string path =
      std::string(SP_SOURCE_DIR) + "/tests/golden/recovery_scenario.jsonl";
  if (std::getenv("SP_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with SP_REGENERATE_GOLDEN=1 to create)";
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string expected = buf.str();
  if (actual != expected) {
    std::istringstream a(actual), e(expected);
    std::string aline, eline;
    int line = 0;
    while (true) {
      ++line;
      bool more_a = static_cast<bool>(std::getline(a, aline));
      bool more_e = static_cast<bool>(std::getline(e, eline));
      if (!more_a && !more_e) break;
      if (!more_a) aline = "<eof>";
      if (!more_e) eline = "<eof>";
      ASSERT_EQ(eline, aline) << "golden mismatch at line " << line;
      if (!more_a || !more_e) break;
    }
    FAIL() << "ledger differs from golden file " << path;
  }
}

}  // namespace
}  // namespace streampart
