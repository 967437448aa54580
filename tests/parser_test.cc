/// \file parser_test.cc
/// \brief Lexer and parser tests: tokens, precedence, clause structure,
/// joins, and error reporting.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "parser/stream_def.h"
#include "tests/test_util.h"

namespace streampart {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  ASSERT_OK_AND_ASSIGN(auto tokens,
                       LexGsql("SELECT x, 42 FROM t WHERE y >= 0x1F"));
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[3].int_value, 42u);
  EXPECT_TRUE(tokens[4].IsKeyword("FROM"));
  EXPECT_EQ(tokens[8].kind, TokenKind::kGe);
  EXPECT_EQ(tokens[9].int_value, 0x1Fu);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  ASSERT_OK_AND_ASSIGN(auto tokens, LexGsql("select From wHeRe"));
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[2].IsKeyword("WHERE"));
}

TEST(LexerTest, IdentifiersPreserveCase) {
  ASSERT_OK_AND_ASSIGN(auto tokens, LexGsql("srcIP DestPort"));
  EXPECT_EQ(tokens[0].text, "srcIP");
  EXPECT_EQ(tokens[1].text, "DestPort");
}

TEST(LexerTest, IpLiterals) {
  ASSERT_OK_AND_ASSIGN(auto tokens, LexGsql("10.1.2.3"));
  ASSERT_EQ(tokens[0].kind, TokenKind::kIpLiteral);
  EXPECT_EQ(tokens[0].int_value, 0x0A010203u);
}

TEST(LexerTest, FloatVsIpDisambiguation) {
  ASSERT_OK_AND_ASSIGN(auto tokens, LexGsql("1.5 + 2"));
  EXPECT_EQ(tokens[0].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ(tokens[0].float_value, 1.5);
}

TEST(LexerTest, MultiCharOperators) {
  ASSERT_OK_AND_ASSIGN(auto tokens, LexGsql("<= >= <> != << >>"));
  EXPECT_EQ(tokens[0].kind, TokenKind::kLe);
  EXPECT_EQ(tokens[1].kind, TokenKind::kGe);
  EXPECT_EQ(tokens[2].kind, TokenKind::kNe);
  EXPECT_EQ(tokens[3].kind, TokenKind::kNe);
  EXPECT_EQ(tokens[4].kind, TokenKind::kShiftLeft);
  EXPECT_EQ(tokens[5].kind, TokenKind::kShiftRight);
}

TEST(LexerTest, CommentsAndStrings) {
  ASSERT_OK_AND_ASSIGN(auto tokens,
                       LexGsql("'hello world' -- trailing comment\n42"));
  EXPECT_EQ(tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "hello world");
  EXPECT_EQ(tokens[1].int_value, 42u);
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(LexGsql("'unterminated").status().IsParseError());
  EXPECT_TRUE(LexGsql("a ? b").status().IsParseError());
  EXPECT_TRUE(LexGsql("0x").status().IsParseError());
  EXPECT_TRUE(LexGsql("a ! b").status().IsParseError());
}

// ---------------------------------------------------------------------------
// Expression precedence
// ---------------------------------------------------------------------------

struct PrecedenceCase {
  const char* input;
  const char* canonical;  // fully parenthesized ToString
};

// Names each case by its input. Without it gtest prints the raw struct
// bytes, i.e. the string-literal addresses, so the registered ctest name
// changes with every build and every ASLR base.
void PrintTo(const PrecedenceCase& c, std::ostream* os) { *os << c.input; }

class PrecedenceTest : public ::testing::TestWithParam<PrecedenceCase> {};

TEST_P(PrecedenceTest, ParsesWithDocumentedPrecedence) {
  auto parsed = ParseExpression(GetParam().input);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)->ToString(), GetParam().canonical);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PrecedenceTest,
    ::testing::Values(
        PrecedenceCase{"a + b * c", "(a + (b * c))"},
        PrecedenceCase{"a * b + c", "((a * b) + c)"},
        PrecedenceCase{"a + b >> c", "((a + b) >> c)"},
        PrecedenceCase{"a & b >> c", "(a & (b >> c))"},
        PrecedenceCase{"a | b & c", "(a | (b & c))"},
        PrecedenceCase{"a ^ b | c", "((a ^ b) | c)"},
        // Unlike C, comparisons bind looser than bitwise ops.
        PrecedenceCase{"flags & 2 = 2", "((flags & 2) = 2)"},
        PrecedenceCase{"a = b AND c = d", "((a = b) AND (c = d))"},
        PrecedenceCase{"a = b OR c = d AND e = f",
                       "((a = b) OR ((c = d) AND (e = f)))"},
        PrecedenceCase{"NOT a = b", "NOT((a = b))"},
        PrecedenceCase{"-a * b", "(-(a) * b)"},
        PrecedenceCase{"~a & b", "(~(a) & b)"},
        PrecedenceCase{"a - b - c", "((a - b) - c)"},
        PrecedenceCase{"a / b / c", "((a / b) / c)"}));

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

TEST(ParserTest, SimpleAggregationQuery) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseQuery("SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
                 "GROUP BY time/60 as tb, srcIP HAVING COUNT(*) > 5"));
  EXPECT_EQ(q.select_list.size(), 3u);
  EXPECT_EQ(q.select_list[2].alias, "cnt");
  ASSERT_EQ(q.from.size(), 1u);
  EXPECT_EQ(q.from[0].stream, "TCP");
  ASSERT_EQ(q.group_by.size(), 2u);
  EXPECT_EQ(q.group_by[0].alias, "tb");
  ASSERT_NE(q.having, nullptr);
  EXPECT_FALSE(q.is_join());
}

TEST(ParserTest, WhereClause) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseQuery("SELECT time, srcIP FROM TCP WHERE protocol = 6 AND "
                 "destPort = 80"));
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->binary_op(), BinaryOp::kAnd);
  EXPECT_EQ(q.group_by.size(), 0u);
}

TEST(ParserTest, CommaJoinWithAliases) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseQuery("SELECT S1.a, S2.b FROM hv S1, hv S2 "
                 "WHERE S1.k = S2.k and S1.t = S2.t+1"));
  ASSERT_TRUE(q.is_join());
  EXPECT_EQ(q.from[0].EffectiveAlias(), "S1");
  EXPECT_EQ(q.from[1].EffectiveAlias(), "S2");
  EXPECT_EQ(q.join_type, JoinType::kInner);
}

TEST(ParserTest, ExplicitJoinVariants) {
  struct JoinCase {
    const char* sql;
    JoinType expected;
  };
  const JoinCase cases[] = {
      {"SELECT a FROM x JOIN y WHERE x.k = y.k", JoinType::kInner},
      {"SELECT a FROM x INNER JOIN y WHERE x.k = y.k", JoinType::kInner},
      {"SELECT a FROM x LEFT JOIN y WHERE x.k = y.k", JoinType::kLeftOuter},
      {"SELECT a FROM x LEFT OUTER JOIN y WHERE x.k = y.k",
       JoinType::kLeftOuter},
      {"SELECT a FROM x RIGHT OUTER JOIN y WHERE x.k = y.k",
       JoinType::kRightOuter},
      {"SELECT a FROM x FULL OUTER JOIN y WHERE x.k = y.k",
       JoinType::kFullOuter},
  };
  for (const JoinCase& c : cases) {
    ASSERT_OK_AND_ASSIGN(ParsedQuery q, ParseQuery(c.sql));
    EXPECT_EQ(q.join_type, c.expected) << c.sql;
    EXPECT_TRUE(q.is_join()) << c.sql;
  }
}

TEST(ParserTest, JoinWithOnClause) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseQuery("SELECT a FROM x AS l JOIN y AS r ON l.k = r.k "
                 "WHERE l.v > 3"));
  ASSERT_NE(q.on, nullptr);
  ASSERT_NE(q.where, nullptr);
}

TEST(ParserTest, BareAliases) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseQuery("SELECT time/60 tb FROM TCP GROUP BY time/60 tb"));
  EXPECT_EQ(q.select_list[0].alias, "tb");
  EXPECT_EQ(q.group_by[0].alias, "tb");
}

TEST(ParserTest, TrailingSemicolonAllowed) {
  EXPECT_OK(ParseQuery("SELECT a FROM t;").status());
}

TEST(ParserTest, PaperQueriesAllParse) {
  const char* queries[] = {
      // §1 flow query.
      "SELECT time,srcIP,destIP,srcPort,destPort, COUNT(*),SUM(len), "
      "MIN(timestamp),MAX(timestamp) FROM TCP "
      "GROUP BY time,srcIP,destIP,srcPort,destPort",
      // §3.1 window examples.
      "SELECT tb, srcIP, destIP, sum(len) FROM PKT "
      "GROUP BY time/60 as tb, srcIP, destIP",
      "SELECT time, PKT1.srcIP, PKT1.destIP, PKT1.len + PKT2.len "
      "FROM PKT1 JOIN PKT2 WHERE PKT1.time = PKT2.time and "
      "PKT1.srcIP = PKT2.srcIP and PKT1.destIP = PKT2.destIP",
      // §3.2 query set.
      "SELECT tb,srcIP,destIP,COUNT(*) as cnt FROM TCP "
      "GROUP BY time/60 as tb,srcIP,destIP",
      "SELECT tb,srcIP,max(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
      "SELECT S1.tb, S1.srcIP, S1.max_cnt,S2.max_cnt "
      "FROM heavy_flows S1, heavy_flows S2 "
      "WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
      // §4 example pair.
      "SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*), SUM(len) "
      "FROM TCP GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort",
      "SELECT tb, srcIP, destIP, count(*) FROM tcp_flows "
      "GROUP BY tb, srcIP, destIP",
      // §5.2.2 tcp_count.
      "SELECT time, srcIP, destIP, srcPort, COUNT(*) FROM TCP "
      "GROUP BY time, srcIP, destIP, srcPort",
      // §6.1 suspicious flows (HAVING with OR_AGGR).
      "SELECT tb, srcIP, destIP, srcPort, destPort, OR_AGGR(flags) as "
      "orflag, COUNT(*), SUM(len) FROM TCP GROUP BY time as tb, srcIP, "
      "destIP, srcPort, destPort HAVING OR_AGGR(flags) = 41",
  };
  for (const char* sql : queries) {
    EXPECT_OK(ParseQuery(sql).status());
  }
}

TEST(ParserTest, ToStringRoundTrips) {
  const char* queries[] = {
      "SELECT tb, srcIP, COUNT(*) AS cnt FROM TCP "
      "GROUP BY time/60 AS tb, srcIP HAVING COUNT(*) > 5",
      "SELECT S1.a, S2.b FROM x AS S1 LEFT OUTER JOIN y AS S2 "
      "WHERE S1.k = S2.k",
      "SELECT a FROM t WHERE (x & 0xF0) = 16",
  };
  for (const char* sql : queries) {
    ASSERT_OK_AND_ASSIGN(ParsedQuery q1, ParseQuery(sql));
    ASSERT_OK_AND_ASSIGN(ParsedQuery q2, ParseQuery(q1.ToString()));
    EXPECT_EQ(q1.ToString(), q2.ToString()) << sql;
  }
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(ParseQuery("FROM t SELECT a").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT FROM t").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT a").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT a FROM t GROUP time").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT a FROM t WHERE").status().IsParseError());
  EXPECT_TRUE(ParseQuery("SELECT a FROM t extra garbage ,")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseExpression("a +").status().IsParseError());
  EXPECT_TRUE(ParseExpression("(a + b").status().IsParseError());
  EXPECT_TRUE(ParseExpression("f(a,").status().IsParseError());
}

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  // The parser must fail gracefully (ParseError), never crash or hang, on
  // arbitrary token sequences.
  const char* kFragments[] = {
      "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "JOIN", "AS",
      "AND",    "OR",   "NOT",   "(",     ")",  ",",      ".",    "*",
      "+",      "-",    "/",     "&",     "|",  "=",      "<>",   ">>",
      "a",      "tb",   "srcIP", "42",    "0xFF", "1.5",  "'s'",  "10.0.0.1",
  };
  Rng rng(4242);
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    size_t n = rng.Uniform(1, 24);
    for (size_t i = 0; i < n; ++i) {
      text += kFragments[rng.Uniform(0, std::size(kFragments) - 1)];
      text += " ";
    }
    auto q = ParseQuery(text);
    auto e = ParseExpression(text);
    if (!q.ok()) {
      EXPECT_TRUE(q.status().IsParseError()) << text;
    }
    if (!e.ok()) {
      EXPECT_TRUE(e.status().IsParseError()) << text;
    }
  }
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    size_t n = rng.Uniform(0, 60);
    for (size_t i = 0; i < n; ++i) {
      text.push_back(static_cast<char>(rng.Uniform(1, 127)));
    }
    (void)ParseQuery(text);     // must return, never crash
    (void)ParseExpression(text);
    (void)ParseStreamDef(text);
  }
}

}  // namespace
}  // namespace streampart
