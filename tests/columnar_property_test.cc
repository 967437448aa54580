/// \file columnar_property_test.cc
/// \brief Property / fuzz battery for cost-ordered columnar filtering.
///
/// Two invariants are fuzzed, both load-bearing for the columnar path:
///
///  * Clause reordering is a pure cost transformation. Filter semantics
///    collapse NULL to false, so applying the conjuncts of a random CNF
///    predicate clause-at-a-time over a selection vector yields the same
///    final selection for *every* clause permutation — and the same rows the
///    row-path Expr::Eval keeps, over a null-free batch and one with NULL
///    cells, with clause shapes on both sides of each fast-path guard.
///    OrderClauses must also be deterministic (stable sort) and
///    conjunction-preserving.
///
///  * The three execution paths agree on arbitrary workloads: randomized
///    query × trace runs produce identical output sequences and OpStats
///    under per-tuple, row-batch, and columnar delivery.
///
/// Everything is seeded; failures print the seed and the generated shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/column_batch.h"
#include "exec/ops.h"
#include "optimizer/filter_order.h"
#include "plan/query_graph.h"
#include "tests/test_util.h"

namespace streampart {
namespace {

using ::streampart::testing::Drive;
using ::streampart::testing::ExpectSameSequence;
using ::streampart::testing::ExpectStatsEqual;
using ::streampart::testing::Outcome;

// ---------------------------------------------------------------------------
// Random bound CNF predicates over the packet schema
// ---------------------------------------------------------------------------

struct SchemaCol {
  const char* name;
  DataType type;
};

// The canonical packet schema (catalog.cc): index == tuple slot.
constexpr SchemaCol kCols[] = {
    {"time", DataType::kUint},     {"srcIP", DataType::kIp},
    {"destIP", DataType::kIp},     {"srcPort", DataType::kUint},
    {"destPort", DataType::kUint}, {"len", DataType::kUint},
    {"flags", DataType::kUint},    {"protocol", DataType::kUint},
    {"timestamp", DataType::kUint},
};

constexpr BinaryOp kCmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                              BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};

/// One random comparison clause: column [op arith-literal] cmp literal, or
/// column cmp column of the same type. Constants are drawn small enough
/// that clauses are neither always-true nor always-false on real traces.
ExprPtr RandomClause(std::mt19937* rng) {
  std::uniform_int_distribution<int> col_pick(0, 8);
  std::uniform_int_distribution<int> cmp_pick(0, 5);
  std::uniform_int_distribution<int> shape_pick(0, 3);
  int ci = col_pick(*rng);
  const SchemaCol& col = kCols[ci];
  BinaryOp cmp = kCmps[cmp_pick(*rng)];
  ExprPtr lhs = Expr::Column(col.name);
  switch (shape_pick(*rng)) {
    case 0:  // col cmp literal
      break;
    case 1: {  // (col arith k) cmp literal — masks, mod, shifts
      constexpr BinaryOp kArith[] = {BinaryOp::kBitAnd, BinaryOp::kMod,
                                     BinaryOp::kShiftRight, BinaryOp::kAdd};
      std::uniform_int_distribution<int> arith_pick(0, 3);
      std::uniform_int_distribution<uint64_t> k_pick(0, 255);
      // kMod by 0 yields NULL (collapses to false) — keep it reachable but
      // rare by drawing from [0, 255].
      lhs = Expr::Binary(kArith[arith_pick(*rng)], std::move(lhs),
                         Expr::Literal(Value::Uint(k_pick(*rng))));
      break;
    }
    case 2: {  // col cmp col (same type)
      int cj = col_pick(*rng);
      while (kCols[cj].type != col.type) cj = col_pick(*rng);
      return Expr::Binary(cmp, std::move(lhs), Expr::Column(kCols[cj].name));
    }
    default: {  // NOT (col cmp literal)
      std::uniform_int_distribution<uint64_t> v_pick(0, 4096);
      Value lit = col.type == DataType::kIp
                      ? Value::Ip(static_cast<uint32_t>(v_pick(*rng)))
                      : Value::Uint(v_pick(*rng));
      return Expr::Unary(
          UnaryOp::kNot,
          Expr::Binary(cmp, std::move(lhs), Expr::Literal(std::move(lit))));
    }
  }
  std::uniform_int_distribution<uint64_t> v_pick(0, 4096);
  Value lit = col.type == DataType::kIp
                  ? Value::Ip(static_cast<uint32_t>(v_pick(*rng)))
                  : Value::Uint(v_pick(*rng));
  return Expr::Binary(cmp, std::move(lhs), Expr::Literal(std::move(lit)));
}

/// RandomClause's unsigned shapes half the time; otherwise a shape on the
/// other side of a columnar fast-path guard: a kInt operand (unary
/// negate), a kDouble or kBool literal, a literal on the left, a shift by
/// 64 or more, or a division that can be NULL (by a column or by 0).
ExprPtr RandomGuardClause(std::mt19937* rng) {
  std::uniform_int_distribution<int> shape_pick(0, 11);
  const int shape = shape_pick(*rng);
  if (shape < 6) return RandomClause(rng);
  std::uniform_int_distribution<int> col_pick(0, 8);
  std::uniform_int_distribution<int> cmp_pick(0, 5);
  std::uniform_int_distribution<uint64_t> v_pick(0, 4096);
  std::bernoulli_distribution coin(0.5);
  const SchemaCol& col = kCols[col_pick(*rng)];
  const BinaryOp cmp = kCmps[cmp_pick(*rng)];
  ExprPtr c = Expr::Column(col.name);
  auto lit = [](Value v) { return Expr::Literal(std::move(v)); };
  switch (shape) {
    case 6: {  // -col cmp literal: the signed ladder
      ExprPtr neg = Expr::Unary(UnaryOp::kNegate, std::move(c));
      const int64_t k = -static_cast<int64_t>(v_pick(*rng));
      return Expr::Binary(cmp, std::move(neg),
                          coin(*rng) ? lit(Value::Int(k))
                                     : lit(Value::Uint(v_pick(*rng))));
    }
    case 7:  // col cmp double literal
      return Expr::Binary(
          cmp, std::move(c),
          lit(Value::Double(static_cast<double>(v_pick(*rng)) + 0.5)));
    case 8: {  // a kBool literal: against a comparison, or the column
      ExprPtr lhs = std::move(c);
      if (coin(*rng)) {
        lhs = Expr::Binary(kCmps[cmp_pick(*rng)], std::move(lhs),
                           lit(Value::Uint(v_pick(*rng))));
      }
      return Expr::Binary(cmp, std::move(lhs), lit(Value::Bool(coin(*rng))));
    }
    case 9: {  // literal on the left, of a column or of `k op col`
      ExprPtr rhs = std::move(c);
      if (coin(*rng)) {
        constexpr BinaryOp kOps[] = {BinaryOp::kSub, BinaryOp::kBitAnd,
                                     BinaryOp::kMul, BinaryOp::kShiftRight};
        std::uniform_int_distribution<int> op_pick(0, 3);
        rhs = Expr::Binary(kOps[op_pick(*rng)], lit(Value::Uint(v_pick(*rng))),
                           std::move(rhs));
      }
      return Expr::Binary(cmp, lit(Value::Uint(v_pick(*rng))),
                          std::move(rhs));
    }
    case 10: {  // shifts straddling 64
      std::uniform_int_distribution<uint64_t> s_pick(56, 72);
      ExprPtr shifted = Expr::Binary(
          coin(*rng) ? BinaryOp::kShiftLeft : BinaryOp::kShiftRight,
          std::move(c), lit(Value::Uint(s_pick(*rng))));
      return Expr::Binary(cmp, std::move(shifted),
                          lit(Value::Uint(v_pick(*rng) % 8)));
    }
    default: {  // division or modulo by a column or a literal in [0, 3]
      ExprPtr divisor = coin(*rng)
                            ? Expr::Column(kCols[col_pick(*rng)].name)
                            : lit(Value::Uint(v_pick(*rng) % 4));
      ExprPtr quotient =
          Expr::Binary(coin(*rng) ? BinaryOp::kDiv : BinaryOp::kMod,
                       std::move(c), std::move(divisor));
      return Expr::Binary(cmp, std::move(quotient),
                          lit(Value::Uint(v_pick(*rng) % 16)));
    }
  }
}

std::vector<ExprPtr> RandomBoundClauses(std::mt19937* rng, size_t count) {
  BindingContext ctx;
  ctx.AddInput("", MakePacketSchema());
  std::vector<ExprPtr> clauses;
  clauses.reserve(count);
  while (clauses.size() < count) {
    ExprPtr clause = RandomGuardClause(rng);
    auto bound = clause->Bind(ctx);
    SP_CHECK(bound.ok()) << clause->ToString() << ": "
                         << bound.status().ToString();
    clauses.push_back(*bound);
  }
  return clauses;
}

std::string ClausesToString(const std::vector<ExprPtr>& clauses) {
  std::string out;
  for (const ExprPtr& c : clauses) out += c->ToString() + " AND ";
  return out;
}

/// Applies \p clauses clause-at-a-time over the full batch, the columnar
/// filter kernel's exact loop.
SelectionVector FilterWith(const std::vector<ExprPtr>& clauses,
                           const ColumnBatch& batch) {
  SelectionVector sel;
  IdentitySelection(batch.rows(), &sel);
  for (const ExprPtr& clause : clauses) {
    SP_CHECK(ExprVectorizable(clause)) << clause->ToString();
    ColumnEvaluator eval(clause);
    eval.Filter(batch, &sel);
    if (sel.empty()) break;
  }
  return sel;
}

/// \p trace with NULL cells: per column a null rate of 0, 5%, 30% or 100%
/// (an all-NULL column is typeless), so clauses see null-free, sparse-null
/// and whole-NULL operands in one batch.
TupleBatch WithNullCells(TupleBatch trace, std::mt19937* rng) {
  constexpr double kRates[] = {0.0, 0.05, 0.3, 1.0};
  std::uniform_int_distribution<int> rate_pick(0, 3);
  double rate[std::size(kCols)];
  for (double& r : rate) r = kRates[rate_pick(*rng)];
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (Tuple& t : trace) {
    for (size_t j = 0; j < std::size(kCols); ++j) {
      if (u(*rng) < rate[j]) t.at(j) = Value::Null();
    }
  }
  return trace;
}

class ClauseOrderPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ClauseOrderPropertyTest, FilterIsPermutationInvariantAndMatchesEval) {
  std::mt19937 rng(GetParam());
  const TupleBatch dense =
      testing::MakeSmallTrace(/*duration_sec=*/2, /*pps=*/800);
  const TupleBatch nullable = WithNullCells(dense, &rng);
  ColumnBatch dense_batch, nullable_batch;
  ASSERT_TRUE(dense_batch.FromTuples(TupleSpan(dense)));
  ASSERT_TRUE(nullable_batch.FromTuples(TupleSpan(nullable)));

  std::uniform_int_distribution<size_t> n_pick(1, 5);
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<ExprPtr> clauses = RandomBoundClauses(&rng, n_pick(rng));
    ExprPtr conj = ConjunctionOf(clauses);
    for (const bool with_nulls : {false, true}) {
      const TupleBatch& trace = with_nulls ? nullable : dense;
      const ColumnBatch& batch = with_nulls ? nullable_batch : dense_batch;
      std::string ctx = "seed=" + std::to_string(GetParam()) + " iter=" +
                        std::to_string(iter) +
                        (with_nulls ? " nulls " : " ") +
                        ClausesToString(clauses);

      // Row-path reference: Expr::Eval of the full conjunction, NULL →
      // false.
      SelectionVector expected;
      for (size_t i = 0; i < trace.size(); ++i) {
        if (conj->Eval(trace[i]).Truthy()) {
          expected.push_back(static_cast<uint32_t>(i));
        }
      }

      // Original order, five random permutations, and the cost order must
      // all select exactly those rows.
      EXPECT_EQ(expected, FilterWith(clauses, batch))
          << ctx << "(source order)";
      std::vector<ExprPtr> permuted = clauses;
      for (int p = 0; p < 5; ++p) {
        std::shuffle(permuted.begin(), permuted.end(), rng);
        EXPECT_EQ(expected, FilterWith(permuted, batch))
            << ctx << "(permutation " << p << ")";
      }
      EXPECT_EQ(expected, FilterWith(OrderClauses(conj, {}), batch))
          << ctx << "(heuristic order)";
      EXPECT_EQ(expected,
                FilterWith(OrderClauses(conj, TupleSpan(trace)), batch))
          << ctx << "(measured order)";
    }
  }
}

TEST_P(ClauseOrderPropertyTest, OrderClausesIsDeterministicAndLossless) {
  std::mt19937 rng(GetParam() ^ 0x5eedu);
  TupleBatch sample = testing::MakeSmallTrace(/*duration_sec=*/1, /*pps=*/500);
  std::uniform_int_distribution<size_t> n_pick(2, 6);
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<ExprPtr> clauses = RandomBoundClauses(&rng, n_pick(rng));
    ExprPtr conj = ConjunctionOf(clauses);
    std::string ctx = "seed=" + std::to_string(GetParam()) + " iter=" +
                      std::to_string(iter) + " " + ClausesToString(clauses);

    std::vector<ExprPtr> once = OrderClauses(conj, TupleSpan(sample));
    std::vector<ExprPtr> twice = OrderClauses(conj, TupleSpan(sample));
    ASSERT_EQ(once.size(), clauses.size()) << ctx;
    ASSERT_EQ(once.size(), twice.size()) << ctx;
    for (size_t i = 0; i < once.size(); ++i) {
      EXPECT_TRUE(Expr::Equal(once[i], twice[i])) << ctx << " index " << i;
    }
    // Lossless: the ordered clauses are a permutation of the originals.
    std::vector<bool> used(clauses.size(), false);
    for (const ExprPtr& c : once) {
      bool found = false;
      for (size_t j = 0; j < clauses.size(); ++j) {
        if (!used[j] && Expr::Equal(c, clauses[j])) {
          used[j] = found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << ctx << " extraneous clause " << c->ToString();
    }
    // ReorderPredicate round-trips through ConjunctionOf: same row-path
    // truth value everywhere.
    ExprPtr reordered = ReorderPredicate(conj, TupleSpan(sample));
    for (size_t i = 0; i < sample.size(); i += 7) {
      EXPECT_EQ(conj->Eval(sample[i]).Truthy(),
                reordered->Eval(sample[i]).Truthy())
          << ctx << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClauseOrderPropertyTest,
                         ::testing::Values(1u, 2u, 3u));

// ---------------------------------------------------------------------------
// Randomized query × trace three-way agreement
// ---------------------------------------------------------------------------

/// Builds a random GSQL query over TCP: selection or aggregation, with a
/// random WHERE built from the same clause generator (rendered via
/// Expr::ToString, which the parser accepts back).
std::string RandomQuery(std::mt19937* rng) {
  std::uniform_int_distribution<int> kind_pick(0, 2);
  std::uniform_int_distribution<size_t> n_where(0, 3);
  std::string where;
  size_t n = n_where(*rng);
  if (n > 0) {
    std::vector<ExprPtr> clauses;
    while (clauses.size() < n) clauses.push_back(RandomClause(rng));
    where = " WHERE " + clauses[0]->ToString();
    for (size_t i = 1; i < clauses.size(); ++i) {
      where += " and " + clauses[i]->ToString();
    }
  }
  switch (kind_pick(*rng)) {
    case 0:
      return "SELECT time, srcIP, destIP, len FROM TCP" + where;
    case 1:
      return "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as bytes FROM TCP" +
             where + " GROUP BY time as tb, srcIP";
    default:
      return "SELECT tb, proto, MIN(len) as lo, MAX(len) as hi, "
             "SUM(len * 2) as dbytes FROM TCP" +
             where + " GROUP BY time as tb, protocol as proto";
  }
}

class RandomQueryPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomQueryPropertyTest, ThreeWayAgreementOnRandomWorkloads) {
  std::mt19937 rng(GetParam() * 7919u);
  Catalog catalog = MakeDefaultCatalog();
  std::uniform_int_distribution<uint32_t> dur_pick(1, 3);
  std::uniform_int_distribution<uint32_t> pps_pick(200, 1500);
  std::uniform_int_distribution<size_t> batch_pick(1, 600);
  for (int iter = 0; iter < 12; ++iter) {
    std::string gsql = RandomQuery(&rng);
    TupleBatch trace =
        testing::MakeSmallTrace(dur_pick(rng), pps_pick(rng));
    std::string ctx = "seed=" + std::to_string(GetParam()) + " iter=" +
                      std::to_string(iter) + " " + gsql;

    QueryGraph graph(&catalog);
    Status st = graph.AddQuery("q", gsql);
    ASSERT_TRUE(st.ok()) << ctx << ": " << st.ToString();
    QueryNodePtr node = *graph.GetQuery("q");

    auto make = [&] {
      auto op = MakeOperator(node, &UdafRegistry::Default());
      SP_CHECK(op.ok()) << ctx << ": " << op.status().ToString();
      return std::move(*op);
    };
    auto ref_op = make();
    Outcome reference = Drive(ref_op.get(), trace, 0, ExecMode::kTuple);
    size_t batch_size = batch_pick(rng);
    for (ExecMode mode : {ExecMode::kBatch, ExecMode::kColumnar}) {
      auto op = make();
      Outcome run = Drive(op.get(), trace, batch_size, mode);
      std::string mode_ctx = ctx + " @batch=" + std::to_string(batch_size) +
                             " mode=" + ExecModeToString(mode);
      ExpectSameSequence(reference.out, run.out, mode_ctx);
      ExpectStatsEqual(reference.stats, run.stats, mode_ctx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryPropertyTest,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace streampart
