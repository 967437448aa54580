/// \file sliding_test.cc
/// \brief Pane-based sliding-window aggregation tests (Li et al. [17]):
/// window/slide mechanics, gap handling, HAVING over full windows, and
/// parameterized equivalence against brute-force recomputation per window.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/sliding.h"
#include "plan/query_graph.h"
#include "tests/test_util.h"

namespace streampart {
namespace {

using ::streampart::testing::MakePacket;

class SlidingTest : public ::testing::Test {
 protected:
  SlidingTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {}

  QueryNodePtr Node(const std::string& gsql) {
    static int counter = 0;
    std::string name = "sq" + std::to_string(counter++);
    Status st = graph_.AddQuery(name, gsql);
    SP_CHECK(st.ok()) << st.ToString();
    return *graph_.GetQuery(name);
  }

  TupleBatch RunSliding(const QueryNodePtr& node, SlidingSpec spec,
                        const TupleBatch& input) {
    auto op = SlidingAggregateOp::Make(node, &UdafRegistry::Default(), spec);
    SP_CHECK(op.ok()) << op.status().ToString();
    TupleBatch out;
    (*op)->AddSink([&out](const Tuple& t) { out.push_back(t); });
    for (const Tuple& t : input) (*op)->Push(0, t);
    (*op)->Finish(0);
    return out;
  }

  Catalog catalog_;
  QueryGraph graph_;
};

TEST_F(SlidingTest, ValidatesInputs) {
  QueryNodePtr agg = Node(
      "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/10 as tb, srcIP");
  QueryNodePtr no_pane =
      Node("SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP");
  QueryNodePtr not_agg = Node("SELECT time, srcIP FROM TCP");
  const UdafRegistry* reg = &UdafRegistry::Default();
  EXPECT_TRUE(SlidingAggregateOp::Make(agg, reg, {3, 1}).ok());
  EXPECT_FALSE(SlidingAggregateOp::Make(no_pane, reg, {3, 1}).ok());
  EXPECT_FALSE(SlidingAggregateOp::Make(not_agg, reg, {3, 1}).ok());
  EXPECT_FALSE(SlidingAggregateOp::Make(agg, reg, {0, 1}).ok());
  EXPECT_FALSE(SlidingAggregateOp::Make(agg, reg, {3, 0}).ok());
}

TEST_F(SlidingTest, ThreePaneWindowSlidingByOne) {
  // Panes of 10 seconds; windows of 3 panes emitted every pane.
  QueryNodePtr node = Node(
      "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/10 as tb, srcIP");
  // One packet from source 0xA in each of panes 0,1,2,3.
  TupleBatch input = {
      MakePacket(5, 0xA, 1, 1, 1, 10),   // pane 0
      MakePacket(15, 0xA, 1, 1, 1, 10),  // pane 1
      MakePacket(25, 0xA, 1, 1, 1, 10),  // pane 2
      MakePacket(35, 0xA, 1, 1, 1, 10),  // pane 3
  };
  TupleBatch out = RunSliding(node, {3, 1}, input);
  // Windows ending at panes 0..5 (the drain emits trailing windows while
  // their range still touches data): counts 1, 2, 3, 3, 2, 1.
  ASSERT_EQ(out.size(), 6u);
  const uint64_t expected[] = {1, 2, 3, 3, 2, 1};
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].at(0).AsUint64(), i);              // window-end label
    EXPECT_EQ(out[i].at(2).AsUint64(), expected[i]) << i;
  }
}

TEST_F(SlidingTest, TumblingSpecMatchesAggregateOp) {
  // window == slide behaves like a tumbling window over W panes.
  QueryNodePtr node = Node(
      "SELECT tb, COUNT(*) as c FROM TCP GROUP BY time/10 as tb");
  TupleBatch input;
  for (uint64_t sec = 0; sec < 60; sec += 5) {
    input.push_back(MakePacket(sec, 0xA, 1, 1, 1, 10));
  }
  TupleBatch out = RunSliding(node, {2, 2}, input);
  // 6 panes (0..5), 2-pane tumbling windows ending at 1, 3, 5: 4 pkts each.
  ASSERT_EQ(out.size(), 3u);
  for (const Tuple& t : out) {
    EXPECT_EQ(t.at(1).AsUint64(), 4u) << t.ToString();
  }
}

TEST_F(SlidingTest, GapsInPanesAreHandled) {
  QueryNodePtr node = Node(
      "SELECT tb, COUNT(*) as c FROM TCP GROUP BY time/10 as tb");
  TupleBatch input = {
      MakePacket(5, 0xA, 1, 1, 1, 10),    // pane 0
      MakePacket(95, 0xA, 1, 1, 1, 10),   // pane 9 (gap of 8 panes)
      MakePacket(105, 0xA, 1, 1, 1, 10),  // pane 10
  };
  TupleBatch out = RunSliding(node, {2, 1}, input);
  // Non-empty windows: end 0 (pane 0), end 1 (pane 0), end 9, end 10 (9+10),
  // end 11 (pane 10 drains).
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].at(0).AsUint64(), 0u);
  EXPECT_EQ(out[1].at(0).AsUint64(), 1u);
  EXPECT_EQ(out[2].at(0).AsUint64(), 9u);
  EXPECT_EQ(out[3].at(0).AsUint64(), 10u);
  EXPECT_EQ(out[3].at(1).AsUint64(), 2u);
  EXPECT_EQ(out[4].at(0).AsUint64(), 11u);
}

TEST_F(SlidingTest, HavingEvaluatesOverFullWindow) {
  // HAVING COUNT(*) >= 3 can only pass with the whole window's count — a
  // per-pane evaluation would never fire.
  QueryNodePtr node = Node(
      "SELECT tb, srcIP, COUNT(*) as c FROM TCP "
      "GROUP BY time/10 as tb, srcIP HAVING COUNT(*) >= 3");
  TupleBatch input = {
      MakePacket(5, 0xA, 1, 1, 1, 10),
      MakePacket(15, 0xA, 1, 1, 1, 10),
      MakePacket(25, 0xA, 1, 1, 1, 10),
  };
  TupleBatch out = RunSliding(node, {3, 1}, input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(0).AsUint64(), 2u);  // window [0,2]
  EXPECT_EQ(out[0].at(2).AsUint64(), 3u);
}

// ---------------------------------------------------------------------------
// Equivalence against brute-force per-window recomputation, across aggregate
// functions and (window, slide) shapes.
// ---------------------------------------------------------------------------

struct SlidingCase {
  const char* agg;       // aggregate expression
  size_t window;
  size_t slide;
};

// Names each case by its shape; the default raw-byte dump would embed the
// `agg` pointer and change the registered ctest name with every build.
void PrintTo(const SlidingCase& c, std::ostream* os) {
  *os << c.agg << " window=" << c.window << " slide=" << c.slide;
}

class SlidingEquivalence : public ::testing::TestWithParam<SlidingCase> {};

TEST_P(SlidingEquivalence, MatchesBruteForce) {
  const SlidingCase& param = GetParam();
  Catalog catalog = MakeDefaultCatalog();
  QueryGraph graph(&catalog);
  std::string sql = std::string("SELECT tb, srcIP, ") + param.agg +
                    " as v FROM TCP GROUP BY time/10 as tb, srcIP";
  ASSERT_OK(graph.AddQuery("q", sql));
  QueryNodePtr node = *graph.GetQuery("q");

  // Random packets over 8 panes, 3 sources.
  Rng rng(77 + param.window * 10 + param.slide);
  TupleBatch input;
  for (uint64_t sec = 0; sec < 80; ++sec) {
    size_t n = rng.Uniform(0, 3);
    for (size_t i = 0; i < n; ++i) {
      input.push_back(MakePacket(sec, 0xA0 + rng.Uniform(0, 2), 1, 1, 1,
                                 rng.Uniform(40, 1500),
                                 rng.Uniform(0, 63)));
    }
  }

  auto op = SlidingAggregateOp::Make(node, &UdafRegistry::Default(),
                                     {param.window, param.slide});
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  TupleBatch actual;
  (*op)->AddSink([&actual](const Tuple& t) { actual.push_back(t); });
  for (const Tuple& t : input) (*op)->Push(0, t);
  (*op)->Finish(0);

  // Brute force: for each emitted (end_pane, srcIP): recompute the aggregate
  // directly over packets with pane in [end-W+1, end].
  for (const Tuple& row : actual) {
    uint64_t end = row.at(0).AsUint64();
    uint64_t begin = end >= param.window - 1 ? end - (param.window - 1) : 0;
    const Value& src = row.at(1);
    // Direct evaluation via a one-off accumulator.
    auto udaf_name = node->aggregates[0].udaf;
    auto udaf = UdafRegistry::Default().Get(udaf_name);
    ASSERT_TRUE(udaf.ok());
    DataType arg_type = node->aggregates[0].args.empty()
                            ? DataType::kNull
                            : node->aggregates[0].args[0]->result_type();
    auto state = (*udaf)->NewState(arg_type);
    for (const Tuple& pkt : input) {
      uint64_t pane = pkt.at(kPktTime).AsUint64() / 10;
      if (pane < begin || pane > end) continue;
      if (!(pkt.at(kPktSrcIp) == src)) continue;
      Value arg = node->aggregates[0].args.empty()
                      ? Value::Null()
                      : node->aggregates[0].args[0]->Eval(pkt);
      state->Update(arg);
    }
    Value expected = state->Final();
    const Value& got = row.at(2);
    if (expected.type() == DataType::kDouble) {
      EXPECT_NEAR(got.AsDouble(), expected.AsDouble(), 1e-9)
          << "window end " << end << " src " << src.ToString();
    } else {
      EXPECT_EQ(got, expected)
          << "window end " << end << " src " << src.ToString();
    }
  }
  EXPECT_FALSE(actual.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SlidingEquivalence,
    ::testing::Values(SlidingCase{"COUNT(*)", 3, 1},
                      SlidingCase{"SUM(len)", 3, 1},
                      SlidingCase{"MAX(len)", 4, 2},
                      SlidingCase{"MIN(len)", 2, 1},
                      SlidingCase{"AVG(len)", 3, 2},
                      SlidingCase{"OR_AGGR(flags)", 5, 1},
                      SlidingCase{"SUM(len)", 1, 1},
                      SlidingCase{"COUNT(*)", 4, 4},
                      SlidingCase{"AVG(len)", 6, 3}));

}  // namespace
}  // namespace streampart
