/// \file membership_test.cc
/// \brief Differential battery for the cluster-membership lifecycle
/// (partition / heal / rejoin, dist/fault.h + dist/cluster_runtime.cc).
///
/// The robustness contract is differential: a partition-then-heal run and a
/// kill-then-rejoin run produce answers multiset-identical to the healthy
/// run — on the per-tuple and the batched delivery path — with zero
/// source-tuple loss when the reliable-edge machinery is armed.
/// Refusals are conserved (a refused send never entered a channel, so
/// healthy sends == faulty sends + refusals), elastic rejoin grows the
/// cluster mid-run, rejoin storms are cooldown-suppressed, and a golden
/// ledger pins the full JSONL serialization of one lifecycle scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "dist/experiment.h"
#include "dist/partitioner.h"
#include "optimizer/optimizer.h"
#include "tests/test_util.h"
#include "trace/trace_gen.h"

namespace streampart {
namespace {

using ::streampart::testing::ExpectSameMultiset;
using Mode = OptimizerOptions::PartialAggMode;

FaultPlan Plan(const std::string& text) {
  auto plan = FaultPlan::Parse(text);
  SP_CHECK(plan.ok()) << plan.status().ToString();
  return *plan;
}

TupleBatch SmallTrace(uint32_t duration_sec = 4, uint32_t pps = 1000) {
  TraceConfig tc;
  tc.duration_sec = duration_sec;
  tc.packets_per_sec = pps;
  tc.num_flows = 300;
  PacketTraceGenerator gen(tc);
  return gen.GenerateAll();
}

struct DirectRun {
  ClusterRunResult result;
  RunLedger ledger;
};

/// Runs \p trace through a fresh cluster: tuple-at-a-time when
/// \p batch_size is 0, else through PushSourceBatch in batch_size chunks.
DirectRun RunCluster(const QueryGraph& graph, const FaultPlan* faults,
                     int num_hosts, const TupleBatch& trace,
                     size_t batch_size = 0) {
  ClusterConfig cluster;
  cluster.num_hosts = num_hosts;
  cluster.partitions_per_host = 2;
  PartitionSet ps;
  OptimizerOptions oopts;
  oopts.partial_agg = Mode::kPerPartition;
  auto plan = OptimizeForPartitioning(graph, cluster, ps, oopts);
  SP_CHECK(plan.ok()) << plan.status().ToString();
  ClusterRuntime runtime(&graph, &*plan, cluster);
  if (faults != nullptr) runtime.set_fault_plan(*faults);
  Status st = runtime.Build(ps);
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
  return DirectRun{runtime.result(),
                   runtime.MakeLedger(CpuCostParams(), 4.0)};
}

class MembershipTest : public ::testing::Test {
 protected:
  MembershipTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {
    Status st = graph_.AddQuery(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as bytes FROM TCP "
        "GROUP BY time as tb, srcIP");
    SP_CHECK(st.ok()) << st.ToString();
  }

  void ExpectSameOutputs(const DirectRun& expected, const DirectRun& actual,
                         const std::string& ctx) {
    ASSERT_EQ(expected.result.outputs.size(), actual.result.outputs.size())
        << ctx;
    for (const auto& [name, batch] : expected.result.outputs) {
      ASSERT_TRUE(actual.result.outputs.count(name)) << ctx << " / " << name;
      ExpectSameMultiset(batch, actual.result.outputs.at(name),
                         ctx + " / " + name);
    }
  }

  Catalog catalog_;
  QueryGraph graph_;
};

// ---------------------------------------------------------------------------
// Tentpole differential: partition-then-heal == healthy, both exec paths
// ---------------------------------------------------------------------------

TEST_F(MembershipTest, PartitionThenHealEqualsHealthyOnBothPaths) {
  TupleBatch trace = SmallTrace();
  DirectRun healthy = RunCluster(graph_, nullptr, 3, trace);
  FaultPlan faults = Plan(
      "seed 42\n"
      "ckpt 1\n"
      "partition groups=0,1|2 at=1\n"
      "heal at=3\n");
  for (size_t batch_size : {size_t{0}, kDefaultSourceBatch}) {
    std::string ctx = "@batch_size=" + std::to_string(batch_size);
    DirectRun run = RunCluster(graph_, &faults, 3, trace, batch_size);
    // Reliable edges kept retransmitting across the heal: answers are
    // multiset-identical to the healthy run and no source tuple is lost.
    ExpectSameOutputs(healthy, run, ctx);
    EXPECT_EQ(run.ledger.faults().source_tuples_lost, 0u) << ctx;
    const MembershipSection& membership = run.ledger.membership();
    ASSERT_TRUE(membership.active) << ctx;
    ASSERT_TRUE(membership.engaged) << ctx;
    EXPECT_EQ(membership.partitions, 1u) << ctx;
    EXPECT_EQ(membership.heals, 1u) << ctx;
    EXPECT_GT(membership.sends_refused, 0u)
        << ctx << ": cross-group traffic must have been refused";
    ASSERT_GE(membership.events.size(), 2u) << ctx;
    EXPECT_EQ(membership.events[0].kind, "partition") << ctx;
    EXPECT_GT(membership.events[0].refused, 0u) << ctx;
    EXPECT_EQ(membership.events[1].kind, "heal") << ctx;
  }
}

TEST_F(MembershipTest, NeverHealedPartitionGetsImplicitHealAndLosesNothing) {
  TupleBatch trace = SmallTrace();
  DirectRun healthy = RunCluster(graph_, nullptr, 3, trace);
  FaultPlan faults = Plan(
      "seed 42\n"
      "ckpt 1\n"
      "partition groups=0,1|2 at=1\n");
  DirectRun run = RunCluster(graph_, &faults, 3, trace);
  // The end-of-run drain reconnects the severed pairs (implicit heal, shown
  // in the ledger), so the pending backlog still delivers exactly once.
  ExpectSameOutputs(healthy, run, "implicit heal");
  EXPECT_EQ(run.ledger.faults().source_tuples_lost, 0u);
  const MembershipSection& membership = run.ledger.membership();
  EXPECT_EQ(membership.partitions, 1u);
  EXPECT_EQ(membership.heals, 1u) << "implicit end-of-run heal missing";
}

// ---------------------------------------------------------------------------
// Refusal accounting on the lossy path: a refused send never entered a
// channel, so healthy channel traffic == faulty channel traffic + refusals
// ---------------------------------------------------------------------------

TEST_F(MembershipTest, PartitionRefusalsConserveChannelTraffic) {
  TupleBatch trace = SmallTrace();
  // Zero-rate wildcard channels materialize per-pair rows on both sides
  // without perturbing delivery.
  FaultPlan healthy_faults = Plan(
      "seed 42\n"
      "channel from=* to=* drop=0\n");
  FaultPlan severed_faults = Plan(
      "seed 42\n"
      "channel from=* to=* drop=0\n"
      "partition groups=0,1|2 at=1\n"
      "heal at=3\n");
  DirectRun healthy = RunCluster(graph_, &healthy_faults, 3, trace);
  DirectRun severed = RunCluster(graph_, &severed_faults, 3, trace);
  auto total_sent = [](const DirectRun& run) {
    uint64_t sent = 0;
    for (const FaultChannelRow& row : run.ledger.faults().channels) {
      sent += row.sent;
    }
    return sent;
  };
  const MembershipSection& membership = severed.ledger.membership();
  EXPECT_GT(membership.sends_refused, 0u);
  EXPECT_EQ(total_sent(healthy),
            total_sent(severed) + membership.sends_refused)
      << "refused sends must never have entered a channel";
}

// ---------------------------------------------------------------------------
// Kill-then-rejoin differential, cooldown, elastic scale-out
// ---------------------------------------------------------------------------

TEST_F(MembershipTest, KillThenRejoinEqualsHealthyOnBothPaths) {
  TupleBatch trace = SmallTrace();
  DirectRun healthy = RunCluster(graph_, nullptr, 3, trace);
  FaultPlan faults = Plan(
      "seed 42\n"
      "ckpt 1\n"
      "kill host=2 epoch=1\n"
      "rejoin host=2 at=2\n");
  for (size_t batch_size : {size_t{0}, kDefaultSourceBatch}) {
    std::string ctx = "@batch_size=" + std::to_string(batch_size);
    DirectRun run = RunCluster(graph_, &faults, 3, trace, batch_size);
    ExpectSameOutputs(healthy, run, ctx);
    EXPECT_EQ(run.ledger.faults().source_tuples_lost, 0u) << ctx;
    // The rejoined host is a live member again.
    EXPECT_TRUE(run.result.dead_hosts.empty()) << ctx;
    EXPECT_TRUE(run.result.CheckedHost(2).ok()) << ctx;
    const MembershipSection& membership = run.ledger.membership();
    ASSERT_TRUE(membership.engaged) << ctx;
    EXPECT_EQ(membership.rejoins, 1u) << ctx;
    EXPECT_GT(membership.moved_bytes, 0u)
        << ctx << ": the rejoin must have migrated checkpointed state back";
    EXPECT_GT(membership.rejoin_cost_cycles, 0.0) << ctx;
  }
}

TEST_F(MembershipTest, LossyRejoinReadmitsWithoutStateMove) {
  TupleBatch trace = SmallTrace();
  FaultPlan faults = Plan(
      "seed 42\n"
      "kill host=2 epoch=1\n"
      "rejoin host=2 at=2\n");
  DirectRun run = RunCluster(graph_, &faults, 3, trace);
  // Without the checkpoint machinery there is no state to move back: the
  // rejoin is liveness-only (docs/FAULTS.md "Membership lifecycle").
  EXPECT_TRUE(run.result.dead_hosts.empty());
  const MembershipSection& membership = run.ledger.membership();
  EXPECT_EQ(membership.rejoins, 1u);
  EXPECT_EQ(membership.moved_bytes, 0u);
}

TEST_F(MembershipTest, RejoinStormIsCooldownSuppressedButStillAdmits) {
  TupleBatch trace = SmallTrace();
  DirectRun healthy = RunCluster(graph_, nullptr, 3, trace);
  // Two rejoins inside the default 2-epoch cooldown window: the first moves
  // state, the second is suppressed but still re-admits its host.
  FaultPlan faults = Plan(
      "seed 42\n"
      "ckpt 1\n"
      "kill host=1 epoch=1\n"
      "kill host=2 epoch=1\n"
      "rejoin host=1 at=2\n"
      "rejoin host=2 at=2\n");
  DirectRun run = RunCluster(graph_, &faults, 3, trace);
  ExpectSameOutputs(healthy, run, "rejoin storm");
  EXPECT_TRUE(run.result.dead_hosts.empty())
      << "a suppressed rejoin must still admit the host";
  const MembershipSection& membership = run.ledger.membership();
  EXPECT_EQ(membership.rejoins, 1u);
  EXPECT_EQ(membership.rejoins_suppressed, 1u);
  bool saw_suppressed_row = false;
  for (const MembershipEventRow& row : membership.events) {
    if (row.kind == "rejoin_suppressed") saw_suppressed_row = true;
  }
  EXPECT_TRUE(saw_suppressed_row);
}

TEST_F(MembershipTest, ElasticRejoinGrowsTheCluster) {
  TupleBatch trace = SmallTrace();
  DirectRun healthy = RunCluster(graph_, nullptr, 3, trace);
  FaultPlan faults = Plan(
      "seed 42\n"
      "ckpt 1\n"
      "rejoin host=3 at=2\n");
  DirectRun run = RunCluster(graph_, &faults, 3, trace);
  ExpectSameOutputs(healthy, run, "elastic rejoin");
  EXPECT_EQ(run.result.hosts.size(), 4u)
      << "a never-before-seen host must grow the cluster";
  EXPECT_TRUE(run.result.CheckedHost(3).ok());
  const MembershipSection& membership = run.ledger.membership();
  EXPECT_EQ(membership.rejoins, 1u);
}

// ---------------------------------------------------------------------------
// Engagement gating: never-fired membership directives leave no trace
// ---------------------------------------------------------------------------

TEST_F(MembershipTest, NeverFiredMembershipPlanLeavesNoLedgerTrace) {
  TupleBatch trace = SmallTrace();
  FaultPlan faults = Plan(
      "seed 42\n"
      "partition groups=0,1|2 at=100\n"
      "heal at=101\n"
      "rejoin host=2 at=102\n");
  DirectRun run = RunCluster(graph_, &faults, 3, trace);
  // The directives armed the controller but never fired inside the trace:
  // no membership record, no membership scope, no refused sends.
  EXPECT_FALSE(run.ledger.membership().engaged);
  EXPECT_EQ(run.ledger.ToJsonl().find("\"record\":\"membership\""),
            std::string::npos);
  EXPECT_EQ(run.ledger.ToSummaryJson().find("membership"), std::string::npos);
  DirectRun healthy = RunCluster(graph_, nullptr, 3, trace);
  ExpectSameOutputs(healthy, run, "never-fired membership plan");
}

// ---------------------------------------------------------------------------
// Golden-ledger regression: the full JSONL serialization of one membership
// lifecycle scenario (partition -> heal -> kill -> rejoin) is pinned
// byte-for-byte (set SP_REGENERATE_GOLDEN=1 to refresh after an intentional
// schema change).
// ---------------------------------------------------------------------------

TEST(MembershipGoldenTest, LedgerMatchesGoldenFile) {
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
  ExperimentConfig config;
  config.name = "membership_golden";
  config.optimizer.partial_agg = Mode::kPerPartition;
  config.faults = Plan(
      "seed 42\n"
      "ckpt 1\n"
      "partition groups=0,1|2 at=1\n"
      "heal at=2\n"
      "kill host=1 epoch=2\n"
      "rejoin host=1 at=3\n");
  ASSERT_OK_AND_ASSIGN(ExperimentCell cell,
                       runner.RunCell(config, 3, 2, /*batch_size=*/0));
  std::string actual = cell.ledger.ToJsonl();

  const std::string path =
      std::string(SP_SOURCE_DIR) + "/tests/golden/membership_scenario.jsonl";
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
    while (std::getline(e, eline)) {
      ++line;
      if (!std::getline(a, aline) || aline != eline) {
        FAIL() << "ledger diverges from golden at line " << line
               << "\nexpected: " << eline
               << "\nactual:   " << (aline.empty() ? "<missing>" : aline);
      }
    }
    if (std::getline(a, aline)) {
      FAIL() << "ledger has extra lines beyond the golden file: " << aline;
    }
  }
}

}  // namespace
}  // namespace streampart
