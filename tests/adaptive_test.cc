/// \file adaptive_test.cc
/// \brief Differential battery for runtime-adaptive operator placement
/// (dist/adaptive.h): the drift detector, the measured-rate re-coster, the
/// hysteresis/cooldown/damper guard chain, and checkpoint-backed stage
/// migration with automatic rollback.
///
/// The battery mirrors docs/ADAPTIVE.md:
///  1. A controller that never engages (warmup longer than the run) leaves
///     the ledger byte-identical to a run without the `adapt` directive.
///  2. Under deterministic workload drift the controller takes at least one
///     stage move, suppresses at least one candidate behind a guard, and the
///     probe hook forces a worst-candidate move whose watch window rolls it
///     back — every decision lands in the ledger's `adaptive` section.
///  3. Adaptation never changes answers: outputs stay multiset-identical to
///     a static-plan oracle across both execution paths, including a
///     compound chaos run (drift + host kill + binding budget).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dist/experiment.h"
#include "dist/partitioner.h"
#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "tests/test_util.h"
#include "trace/trace_gen.h"

namespace streampart {
namespace {

using ::streampart::testing::ExpectSameMultiset;
using Mode = OptimizerOptions::PartialAggMode;

ExperimentConfig Config(const std::string& name, const std::string& ps,
                        Mode partial) {
  ExperimentConfig config;
  config.name = name;
  if (!ps.empty()) {
    auto parsed = PartitionSet::Parse(ps);
    SP_CHECK(parsed.ok());
    config.ps = *parsed;
  }
  config.optimizer.partial_agg = partial;
  return config;
}

FaultPlan Plan(const std::string& text) {
  auto plan = FaultPlan::Parse(text);
  SP_CHECK(plan.ok()) << plan.status().ToString();
  return *plan;
}

/// Everything a leg needs from one run; the runtime dies at the end of the
/// helper, so controller introspection state is copied out.
struct AdaptiveRun {
  ClusterRunResult result;
  RunLedger ledger;
  AdaptiveSection section;
};

struct RunOpts {
  size_t batch_size = 0;
  ExecMode exec_mode = ExecMode::kBatch;
};

AdaptiveRun RunCluster(const QueryGraph& graph, const ExperimentConfig& config,
                       int num_hosts, const TupleBatch& trace,
                       const RunOpts& opts = {}) {
  ClusterConfig cluster;
  cluster.num_hosts = num_hosts;
  cluster.partitions_per_host = 2;
  auto plan =
      OptimizeForPartitioning(graph, cluster, config.ps, config.optimizer);
  SP_CHECK(plan.ok()) << plan.status().ToString();
  ClusterRuntime runtime(&graph, &*plan, cluster);
  runtime.set_cost_params(CpuCostParams());
  runtime.set_exec_mode(opts.exec_mode);
  if (config.faults.armed()) runtime.set_fault_plan(config.faults);
  Status st = runtime.Build(config.ps);
  SP_CHECK(st.ok()) << st.ToString();
  if (opts.batch_size == 0) {
    for (const Tuple& t : trace) runtime.PushSource("TCP", t);
  } else {
    TupleSpan all(trace);
    for (size_t off = 0; off < all.size(); off += opts.batch_size) {
      runtime.PushSourceBatch(
          "TCP",
          all.subspan(off, std::min(opts.batch_size, all.size() - off)));
    }
  }
  runtime.FinishSources();
  AdaptiveRun run{runtime.result(),
                  runtime.MakeLedger(CpuCostParams(), /*duration_sec=*/4.0),
                  {}};
  if (const AdaptiveController* ctl = runtime.adaptive_controller()) {
    run.section = ctl->section();
  }
  return run;
}

int CountDecisions(const AdaptiveSection& s, const std::string& action) {
  int n = 0;
  for (const AdaptiveDecisionRow& d : s.decisions) {
    if (d.action == action) ++n;
  }
  return n;
}

class AdaptiveTest : public ::testing::Test {
 protected:
  AdaptiveTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {}

  /// GROUP BY destIP under srcIP partitioning is deliberately incompatible:
  /// the optimizer must ship raw tuples from every capture partition to one
  /// central aggregate stage — the placement the adaptive controller can
  /// beat once drift concentrates the intake on one tap host.
  void AddCentralFlows() {
    ASSERT_OK(graph_.AddQuery(
        "flows",
        "SELECT tb, destIP, COUNT(*) as c, SUM(len) as bytes FROM TCP "
        "GROUP BY time as tb, destIP"));
  }

  /// A source IP whose partition (under srcIP hashing, 6 partitions) lives
  /// on a leaf host — so concentrating drift there creates a remote-tuple
  /// hotspot the central aggregate can move toward.
  uint32_t LeafHotIp(int* hot_host) {
    auto ps = PartitionSet::Parse("srcIP");
    SP_CHECK(ps.ok());
    auto schema = catalog_.GetStream("TCP");
    SP_CHECK(schema.ok());
    auto partitioner = MakePartitioner(*ps, *schema, /*num_partitions=*/6);
    SP_CHECK(partitioner.ok());
    ClusterConfig shape;
    shape.num_hosts = 3;
    shape.partitions_per_host = 2;
    for (uint32_t ip = 1; ip < 256; ++ip) {
      Tuple key = ::streampart::testing::MakePacket(0, ip, 1, 1, 1, 64);
      int host = shape.HostOfPartition((*partitioner)->PartitionOf(key));
      if (host != 0) {
        *hot_host = host;
        return ip;
      }
    }
    SP_CHECK(false) << "no candidate IP hashed to a leaf host";
    return 0;
  }

  /// The canonical drift trace: steady mix for 6 s, then a linear ramp
  /// concentrating 85% of the packet mass on one pinned source key. The
  /// default 12 s ramp is slow enough that the projected gain spends a few
  /// epochs inside the hysteresis band (suppressed) before clearing it.
  TraceConfig DriftTraceConfig(uint32_t hot_ip, uint32_t duration_sec = 30,
                               uint32_t ramp_sec = 12) {
    TraceConfig tc;
    tc.duration_sec = duration_sec;
    tc.packets_per_sec = 1500;
    tc.num_flows = 200;
    tc.hot_flows = 1;
    tc.drift_hot_mass_to = 0.85;
    tc.drift_start_sec = 6;
    tc.drift_ramp_sec = ramp_sec;
    tc.drift_hot_src_ip = hot_ip;
    return tc;
  }

  Catalog catalog_;
  QueryGraph graph_;
};

// ---------------------------------------------------------------------------
// FaultPlan::armed(): every directive class alone must arm the plan
// ---------------------------------------------------------------------------

TEST(FaultPlanArmedTest, EveryDirectiveAloneArmsThePlan) {
  // One representative line per directive class. Each alone must arm the
  // plan: PR 4 silently dropped checkpoint-only plans and PR 5 budget-only
  // plans by testing empty() at install sites, and this is the regression
  // fence against the same gap for every future controller.
  const std::vector<std::pair<std::string, std::string>> kDirectives = {
      {"kill", "kill host=1 epoch=3\n"},
      {"channel", "channel from=1 to=0 drop=0.1\n"},
      {"ckpt", "ckpt 2\n"},
      {"budget", "budget host=1 cycles=1e9\n"},
      {"shed", "shed m=4\n"},
      {"adapt", "adapt on\n"},
  };
  for (const auto& [name, text] : kDirectives) {
    FaultPlan plan = Plan(text);
    EXPECT_TRUE(plan.armed()) << "directive '" << name
                              << "' alone must arm the plan";
  }
  // The degenerate plans stay unarmed: nothing to install.
  EXPECT_FALSE(FaultPlan().armed());
  EXPECT_FALSE(Plan("seed 42\n").armed()) << "a bare seed injects nothing";
  EXPECT_FALSE(Plan("epoch_width 5\n").armed())
      << "an epoch width without a controller injects nothing";
}

// ---------------------------------------------------------------------------
// Recost projection: the measured-rate cost model is receiver-side
// ---------------------------------------------------------------------------

TEST(RecostTest, ProjectionMovesReceiverChargeWithTheStage) {
  RecostWeights w;
  w.cycles_per_remote_tuple = 100;
  w.cycles_per_remote_byte = 1;
  // Stage on host 0: 1000 compute cycles, fed 10 tuples / 200 bytes from
  // host 1 (remote: host 0 pays 100*10 + 1*200 = 1200) and 5 tuples / 50
  // bytes from host 0 (local today). It ships 2 tuples / 20 bytes to a
  // consumer on host 2 (host 2 pays 220).
  StageRates s;
  s.host = 0;
  s.compute_cycles = 1000;
  s.inputs = {{1, 10, 200}, {0, 5, 50}};
  s.outputs = {{2, 2, 20}};
  std::vector<double> base = {5000, 400, 300};

  // Status quo projection reproduces the base load.
  std::vector<double> same = ProjectHostLoads(3, base, s, 0, w);
  ASSERT_EQ(same.size(), 3u);
  for (int h = 0; h < 3; ++h) EXPECT_DOUBLE_EQ(same[h], base[h]) << h;

  // Moving the stage to host 1: host 0 sheds compute + the remote input
  // charge; host 1 gains compute + the (now remote) host-0 edge, while the
  // host-1 edge turns local and free; the output edge to host 2 stays
  // remote, repricing at the same consumer (no change).
  std::vector<double> moved = ProjectHostLoads(3, base, s, 1, w);
  EXPECT_DOUBLE_EQ(moved[0], 5000 - 1000 - 1200);
  EXPECT_DOUBLE_EQ(moved[1], 400 + 1000 + (100 * 5 + 1 * 50));
  EXPECT_DOUBLE_EQ(moved[2], 300);
  EXPECT_DOUBLE_EQ(Bottleneck(moved), 2800);

  // Moving it onto its output consumer makes that edge local: host 2 sheds
  // the 220-cycle receive charge but pays for both input edges.
  std::vector<double> onto_consumer = ProjectHostLoads(3, base, s, 2, w);
  EXPECT_DOUBLE_EQ(onto_consumer[0], 5000 - 1000 - 1200);
  EXPECT_DOUBLE_EQ(onto_consumer[2],
                   300 - 220 + 1000 + 1200 + (100 * 5 + 1 * 50));
  EXPECT_DOUBLE_EQ(Bottleneck(onto_consumer), onto_consumer[2]);
}

// ---------------------------------------------------------------------------
// Leg 1: a never-engaged controller is a pure overlay
// ---------------------------------------------------------------------------

TEST_F(AdaptiveTest, DisengagedControllerLedgerByteIdenticalOnBothPaths) {
  AddCentralFlows();
  TraceConfig tc;
  tc.duration_sec = 4;
  tc.packets_per_sec = 1000;
  tc.num_flows = 300;
  TupleBatch trace = PacketTraceGenerator(tc).GenerateAll();
  ExperimentConfig baseline = Config("Hash", "srcIP", Mode::kNone);
  ExperimentConfig adaptive = baseline;
  // Warmup longer than the run: the controller observes every epoch but
  // never reaches a decision, and the ledger must not betray that the
  // machinery was armed at all.
  adaptive.faults = Plan("adapt warmup=100\n");
  for (size_t batch_size : {size_t{0}, kDefaultSourceBatch}) {
    std::string ctx = "@batch=" + std::to_string(batch_size);
    AdaptiveRun plain =
        RunCluster(graph_, baseline, 3, trace, {.batch_size = batch_size});
    AdaptiveRun armed =
        RunCluster(graph_, adaptive, 3, trace, {.batch_size = batch_size});
    EXPECT_EQ(plain.ledger.ToJsonl(), armed.ledger.ToJsonl()) << ctx;
    EXPECT_EQ(plain.ledger.ToSummaryJson(), armed.ledger.ToSummaryJson())
        << ctx;
    EXPECT_TRUE(armed.section.active) << ctx;
    EXPECT_FALSE(armed.section.engaged) << ctx;
    EXPECT_GT(armed.section.epochs, 0u) << ctx << " controller must observe";
    EXPECT_EQ(armed.section.moves_taken, 0u) << ctx;
    EXPECT_TRUE(armed.section.decisions.empty()) << ctx;
  }
}

// ---------------------------------------------------------------------------
// Leg 2: drift engages the full decision machinery
// ---------------------------------------------------------------------------

TEST_F(AdaptiveTest, DriftScenarioMovesSuppressesProbesAndRollsBack) {
  AddCentralFlows();
  int hot_host = -1;
  uint32_t hot_ip = LeafHotIp(&hot_host);
  TupleBatch trace =
      PacketTraceGenerator(DriftTraceConfig(hot_ip)).GenerateAll();

  // ckpt 1 arms the recovery machinery stage migration rides on. The static
  // placement is already ~15% imbalanced (Zipf skew over the partitions), so
  // hysteresis=0.3 sits above that static gain: the pre-drift epochs record
  // suppressed candidates, and only the drifted hot mass clears the bar.
  // The probe at epoch 24 (after the move has committed) forces the WORST
  // candidate, whose watch window must then roll it back.
  ExperimentConfig config = Config("Hash", "srcIP", Mode::kNone);
  config.faults = Plan("ckpt 1\nadapt hysteresis=0.3 probe_epoch=24\n");
  AdaptiveRun run = RunCluster(graph_, config, 3, trace);

  const AdaptiveSection& s = run.section;
  ASSERT_TRUE(s.active);
  ASSERT_TRUE(s.engaged);
  EXPECT_GT(s.drift_events, 0u) << "the ramp must register as drift";
  EXPECT_GT(s.candidates_considered, 0u);

  // At least one genuine (non-probe) move toward the hot host was executed.
  ASSERT_GE(s.moves_taken, 1u);
  int plain_moves = CountDecisions(s, "move");
  ASSERT_GE(plain_moves, 1) << "drift must trigger a non-probe move";
  for (const AdaptiveDecisionRow& d : s.decisions) {
    if (d.action != "move") continue;
    EXPECT_EQ(d.to_host, hot_host)
        << "epoch " << d.epoch << ": the winning move chases the hot mass";
    EXPECT_GT(d.gain_pct, 0.0);
    break;
  }

  // At least one candidate beat the status quo but was vetoed by a guard.
  EXPECT_GE(s.moves_suppressed, 1u);
  EXPECT_GE(CountDecisions(s, "suppressed"), 1);

  // The probe fired, and its watch window reverted it.
  EXPECT_EQ(s.probes, 1u);
  ASSERT_GE(CountDecisions(s, "probe"), 1);
  EXPECT_GE(s.rollbacks, 1u) << "a forced worst move must fail its watch";
  ASSERT_GE(CountDecisions(s, "rollback"), 1);

  // The first genuine move survived its watch window.
  EXPECT_GE(CountDecisions(s, "commit"), 1);

  // Decisions are chronological and the section mirrors the row counts.
  for (size_t i = 1; i < s.decisions.size(); ++i) {
    EXPECT_LE(s.decisions[i - 1].epoch, s.decisions[i].epoch) << "row " << i;
  }
  EXPECT_EQ(s.moves_taken,
            static_cast<uint64_t>(CountDecisions(s, "move") +
                                  CountDecisions(s, "probe")));
  EXPECT_EQ(s.rollbacks, static_cast<uint64_t>(CountDecisions(s, "rollback")));

  // Adaptation never changed the answers: multiset-identical to the static
  // oracle.
  ExperimentConfig plain = Config("Hash", "srcIP", Mode::kNone);
  AdaptiveRun oracle = RunCluster(graph_, plain, 3, trace);
  ASSERT_EQ(oracle.result.outputs.count("flows"), 1u);
  ExpectSameMultiset(oracle.result.outputs.at("flows"),
                     run.result.outputs.at("flows"), "flows");

  // Determinism: the same plan over the same trace reproduces the ledger.
  AdaptiveRun rerun = RunCluster(graph_, config, 3, trace);
  EXPECT_EQ(run.ledger.ToJsonl(), rerun.ledger.ToJsonl());
}

// ---------------------------------------------------------------------------
// Leg 3: the differential battery — adaptation never changes answers
// ---------------------------------------------------------------------------

TEST_F(AdaptiveTest, DriftAnswersIdenticalAcrossExecPathsAndThreads) {
  AddCentralFlows();
  int hot_host = -1;
  uint32_t hot_ip = LeafHotIp(&hot_host);
  // Short and steep: fast enough for the battery, steep enough that the
  // move still fires.
  TupleBatch trace = PacketTraceGenerator(
                         DriftTraceConfig(hot_ip, /*duration_sec=*/18,
                                          /*ramp_sec=*/6))
          .GenerateAll();
  ExperimentConfig plain = Config("Hash", "srcIP", Mode::kNone);
  ExperimentConfig adaptive = plain;
  adaptive.faults = Plan("ckpt 1\nadapt on\n");

  AdaptiveRun oracle = RunCluster(graph_, plain, 3, trace);
  ASSERT_EQ(oracle.result.outputs.count("flows"), 1u);
  const TupleBatch& expected = oracle.result.outputs.at("flows");

  bool any_moved = false;
  for (ExecMode mode : {ExecMode::kBatch, ExecMode::kColumnar}) {
    std::string ctx = std::string("@mode=") +
                      (mode == ExecMode::kBatch ? "batch" : "columnar");
    AdaptiveRun run =
        RunCluster(graph_, adaptive, 3, trace,
                   {.batch_size = kDefaultSourceBatch, .exec_mode = mode});
    ASSERT_EQ(run.result.outputs.count("flows"), 1u) << ctx;
    ExpectSameMultiset(expected, run.result.outputs.at("flows"),
                       "flows " + ctx);
    any_moved = any_moved || run.section.moves_taken > 0;
    // The reliable delivery books close across every migration.
    const RecoverySection& rec = run.ledger.recovery();
    ASSERT_TRUE(rec.active) << ctx;
    EXPECT_EQ(rec.reliable_sent, rec.reliable_applied) << ctx;
  }
  EXPECT_TRUE(any_moved) << "the battery must actually exercise a migration";
}

// ---------------------------------------------------------------------------
// Leg 4: compound chaos — drift + host kill + binding budget, still exact
// ---------------------------------------------------------------------------

TEST_F(AdaptiveTest, CompoundChaosStaysLosslessAndMultisetIdentical) {
  AddCentralFlows();
  int hot_host = -1;
  uint32_t hot_ip = LeafHotIp(&hot_host);
  TupleBatch trace = PacketTraceGenerator(
                         DriftTraceConfig(hot_ip, /*duration_sec=*/20,
                                          /*ramp_sec=*/6))
          .GenerateAll();

  // Kill a host that is neither the hot leaf nor the central aggregate
  // (host 0), so the drift economics survive the failover; an unbounded
  // defer queue keeps the binding budget exact (defers, never sheds).
  int victim = hot_host == 1 ? 2 : 1;
  ExperimentConfig chaos = Config("Hash", "srcIP", Mode::kNone);
  chaos.faults = Plan("ckpt 1\nadapt on\nkill host=" + std::to_string(victim) +
                      " epoch=4\nbudget host=" + std::to_string(victim == 1 ? 2 : 1) +
                      " cycles=1e9 queue=0 reserve=0.05\n");

  ExperimentConfig plain = Config("Hash", "srcIP", Mode::kNone);
  AdaptiveRun oracle = RunCluster(graph_, plain, 3, trace);
  ASSERT_EQ(oracle.result.outputs.count("flows"), 1u);
  const TupleBatch& expected = oracle.result.outputs.at("flows");

  for (ExecMode mode : {ExecMode::kBatch, ExecMode::kColumnar}) {
    std::string ctx = std::string("@mode=") +
                      (mode == ExecMode::kBatch ? "batch" : "columnar");
    AdaptiveRun run =
        RunCluster(graph_, chaos, 3, trace,
                   {.batch_size = kDefaultSourceBatch, .exec_mode = mode});
    // Lossless recovery held through kill + adaptive migrations: the books
    // close and the answers equal the undisturbed oracle.
    const RecoverySection& rec = run.ledger.recovery();
    ASSERT_TRUE(rec.active) << ctx;
    EXPECT_EQ(rec.reliable_sent, rec.reliable_applied) << ctx;
    ASSERT_EQ(run.result.outputs.count("flows"), 1u) << ctx;
    ExpectSameMultiset(expected, run.result.outputs.at("flows"),
                       "flows " + ctx);
    // The controller kept observing through the chaos (it re-baselines
    // across every topology change rather than halting).
    EXPECT_TRUE(run.section.active) << ctx;
    EXPECT_GT(run.section.epochs, 0u) << ctx;
  }
}

// ---------------------------------------------------------------------------
// Golden-ledger regression: the adaptive section's serialization is pinned
// byte-for-byte (set SP_REGENERATE_GOLDEN=1 to refresh after an intentional
// schema change).
// ---------------------------------------------------------------------------

TEST_F(AdaptiveTest, LedgerMatchesGoldenFile) {
  if (!StatsRegistry::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out: operator records absent";
  }
  AddCentralFlows();
  int hot_host = -1;
  uint32_t hot_ip = LeafHotIp(&hot_host);
  TraceConfig tc = DriftTraceConfig(hot_ip);
  ExperimentRunner runner(&graph_, "TCP", tc, CpuCostParams());
  ExperimentConfig config = Config("adaptive_golden", "srcIP", Mode::kNone);
  config.faults = Plan("ckpt 1\nadapt hysteresis=0.3 probe_epoch=24\n");
  ASSERT_OK_AND_ASSIGN(ExperimentCell cell,
                       runner.RunCell(config, 3, 2, /*batch_size=*/0));
  std::string actual = cell.ledger.ToJsonl();
  ASSERT_NE(actual.find("\"record\":\"adaptive\""), std::string::npos)
      << "the scenario must engage the controller";

  const std::string path =
      std::string(SP_SOURCE_DIR) + "/tests/golden/adaptive_scenario.jsonl";
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
  // Exact, name-ordered comparison; report the first differing line.
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
