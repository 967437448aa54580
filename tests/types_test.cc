/// \file types_test.cc
/// \brief Unit tests for the type substrate: DataType, Value, Schema, Tuple,
/// and the common utilities they rest on.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "tests/test_util.h"
#include "types/tuple.h"

namespace streampart {
namespace {

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

TEST(ValueTest, ConstructionAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Uint(42).uint_value(), 42u);
  EXPECT_EQ(Value::Int(-7).int_value(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Ip(0x0A000001).uint_value(), 0x0A000001u);
  EXPECT_EQ(Value::String("x").string_value(), "x");
}

TEST(ValueTest, EqualityIsTypeSensitive) {
  EXPECT_EQ(Value::Uint(1), Value::Uint(1));
  EXPECT_NE(Value::Uint(1), Value::Int(1));
  EXPECT_NE(Value::Uint(1), Value::Ip(1));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Uint(0));
  EXPECT_EQ(Value::String("a"), Value::String("a"));
  EXPECT_NE(Value::String("a"), Value::String("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  const Value values[] = {
      Value::Null(),      Value::Uint(1),   Value::Uint(2),
      Value::Int(1),      Value::Ip(1),     Value::Double(1.0),
      Value::Bool(true),  Value::String("a"),
  };
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString();
      }
    }
  }
  // Same payload, same type hashes equal.
  EXPECT_EQ(Value::Uint(77).Hash(), Value::Uint(77).Hash());
  // Negative and positive zero doubles hash identically.
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value::Uint(1), Value::Uint(2));
  EXPECT_LT(Value::Int(-5), Value::Int(3));
  EXPECT_LT(Value::Double(1.5), Value::Double(2.0));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_FALSE(Value::Uint(2) < Value::Uint(1));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Uint(0).Truthy());
  EXPECT_TRUE(Value::Uint(1).Truthy());
  EXPECT_FALSE(Value::Bool(false).Truthy());
  EXPECT_FALSE(Value::Double(0.0).Truthy());
  EXPECT_TRUE(Value::Double(0.1).Truthy());
  EXPECT_FALSE(Value::String("").Truthy());
  EXPECT_TRUE(Value::String("x").Truthy());
}

TEST(ValueTest, Rendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Uint(42).ToString(), "42");
  EXPECT_EQ(Value::Ip(0x0A010203).ToString(), "10.1.2.3");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
}

TEST(ValueTest, NumericWidening) {
  EXPECT_EQ(Value::Ip(0xFF).AsInt64(), 255);
  EXPECT_EQ(Value::Double(3.9).AsInt64(), 3);
  EXPECT_DOUBLE_EQ(Value::Uint(10).AsDouble(), 10.0);
  EXPECT_EQ(Value::Bool(true).AsUint64(), 1u);
}

// A Value is 16 bytes with a string behind an owning pointer. These pin the
// ownership rules: copies are deep, a moved-from value is NULL, and every
// string/non-string direction of each special member leaves both sides
// valid (ASan flags any double free or leak).

TEST(ValueTest, SixteenBytes) { EXPECT_EQ(sizeof(Value), 16u); }

TEST(ValueTest, CopyConstructionIsDeep) {
  const Value str = Value::String("summary-blob");
  Value copy(str);
  EXPECT_EQ(copy, str);
  EXPECT_NE(&copy.string_value(), &str.string_value());
  const Value num = Value::Uint(7);
  Value num_copy(num);
  EXPECT_EQ(num_copy, num);
}

TEST(ValueTest, CopyAssignmentInEveryDirection) {
  const Value str = Value::String("a string longer than any small buffer");
  const Value num = Value::Ip(0x0A000001);

  Value target = Value::Uint(1);
  target = str;  // non-string <- string
  EXPECT_EQ(target, str);
  EXPECT_NE(&target.string_value(), &str.string_value());
  target = Value::String("x");  // string <- string (shorter)
  target = str;
  EXPECT_EQ(target, str);
  target = num;  // string <- non-string
  EXPECT_EQ(target, num);
  EXPECT_EQ(target.string_value(), "");
  target = Value::Double(2.5);  // non-string <- non-string
  EXPECT_EQ(target, Value::Double(2.5));
  EXPECT_EQ(str.string_value(), "a string longer than any small buffer");
}

TEST(ValueTest, MovesLeaveNullInEveryDirection) {
  Value str = Value::String("blob");
  Value moved(std::move(str));
  EXPECT_TRUE(str.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.string_value(), "blob");
  Value num = Value::Int(-9);
  Value moved_num(std::move(num));
  EXPECT_TRUE(num.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved_num, Value::Int(-9));

  Value target = Value::String("old");
  Value from_str = Value::String("new");
  target = std::move(from_str);  // string <- string
  EXPECT_EQ(target.string_value(), "new");
  EXPECT_TRUE(from_str.is_null());  // NOLINT(bugprone-use-after-move)
  Value from_num = Value::Uint(4);
  target = std::move(from_num);  // string <- non-string
  EXPECT_EQ(target, Value::Uint(4));
  EXPECT_TRUE(from_num.is_null());  // NOLINT(bugprone-use-after-move)
  Value again = Value::String("again");
  target = std::move(again);  // non-string <- string
  EXPECT_EQ(target.string_value(), "again");
  EXPECT_TRUE(again.is_null());  // NOLINT(bugprone-use-after-move)
  Value last = Value::Bool(true);
  Value plain = Value::Uint(3);
  plain = std::move(last);  // non-string <- non-string
  EXPECT_EQ(plain, Value::Bool(true));
  EXPECT_TRUE(last.is_null());  // NOLINT(bugprone-use-after-move)
}

TEST(ValueTest, SelfAssignmentKeepsTheValue) {
  for (const Value& original : {Value::String("self"), Value::Uint(3)}) {
    Value v = original;
    Value& alias = v;
    v = alias;
    EXPECT_EQ(v, original);
    v = std::move(alias);
    EXPECT_EQ(v, original);
  }
}

TEST(ValueTest, StringValueOfNonStringIsEmpty) {
  for (const Value& v : {Value::Null(), Value::Uint(1), Value::Int(-1),
                         Value::Double(2.0), Value::Bool(true),
                         Value::Ip(5)}) {
    EXPECT_EQ(v.string_value(), "") << v.ToString();
  }
}

TEST(ValueTest, StringComparisonAndHashAreByBytes) {
  const Value a = Value::String("abc");
  const Value b = Value::String(std::string("ab") + "c");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_LT(Value::String("ab"), a);
  EXPECT_LT(a, Value::String("abd"));
  EXPECT_LT(Value::Uint(~uint64_t{0}), Value::String(""));  // by type tag
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.Hash(),
            HashCombine(Mix64(static_cast<uint64_t>(DataType::kString)),
                        HashBytes("abc")));
}

TEST(ValueTest, SummaryBlobCellSurvivesBatchCopyAndSerde) {
  // A sketch summary row: epoch plus a binary blob with embedded NULs.
  std::string blob("SKS1\0\x01\xff", 7);
  blob += std::string(300, '\x5a');
  TupleBatch batch;
  batch.push_back(
      Tuple(std::vector<Value>{Value::Uint(3), Value::String(blob)}));
  batch.push_back(Tuple(std::vector<Value>{Value::Uint(4), Value::String("")}));
  TupleBatch copy = batch;
  batch.clear();  // the copy owns its strings
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy[0].at(1).string_value(), blob);

  std::string wire;
  EncodeBatch(copy, &wire);
  auto decoded = DecodeBatch(wire);
  ASSERT_OK(decoded.status());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0], copy[0]);
  EXPECT_EQ((*decoded)[0].at(1).string_value(), blob);
  EXPECT_EQ((*decoded)[1].at(1), Value::String(""));
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(SchemaTest, LookupAndTemporal) {
  SchemaPtr schema = MakePacketSchema();
  EXPECT_EQ(schema->num_fields(), size_t{kPktNumFields});
  ASSERT_TRUE(schema->FieldIndex("srcIP").has_value());
  EXPECT_EQ(*schema->FieldIndex("srcIP"), size_t{kPktSrcIp});
  EXPECT_FALSE(schema->FieldIndex("nosuch").has_value());
  EXPECT_TRUE(schema->field(kPktTime).is_temporal());
  EXPECT_FALSE(schema->field(kPktSrcIp).is_temporal());
  std::vector<size_t> temporal = schema->TemporalFieldIndexes();
  EXPECT_EQ(temporal.size(), 2u);  // time and timestamp
}

TEST(SchemaTest, RequireFieldIndexError) {
  SchemaPtr schema = MakePacketSchema();
  auto r = schema->RequireFieldIndex("bogus");
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_NE(r.status().message().find("bogus"), std::string::npos);
}

TEST(SchemaTest, WireTupleSize) {
  SchemaPtr schema = Schema::Make({
      Field{"a", DataType::kUint, TemporalOrder::kNone},    // 8
      Field{"b", DataType::kIp, TemporalOrder::kNone},      // 4
      Field{"c", DataType::kBool, TemporalOrder::kNone},    // 1
  });
  EXPECT_EQ(schema->WireTupleSize(), 13u);
}

TEST(SchemaTest, Equals) {
  SchemaPtr a = MakePacketSchema();
  SchemaPtr b = MakePacketSchema();
  EXPECT_TRUE(a->Equals(*b));
  SchemaPtr c = Schema::Make({Field{"x", DataType::kUint, TemporalOrder::kNone}});
  EXPECT_FALSE(a->Equals(*c));
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

TEST(TupleTest, ConcatAndOrdering) {
  Tuple a(std::vector<Value>{Value::Uint(1), Value::Uint(2)});
  Tuple b(std::vector<Value>{Value::Uint(3)});
  Tuple ab = Tuple::Concat(a, b);
  EXPECT_EQ(ab.size(), 3u);
  EXPECT_EQ(ab.at(2).AsUint64(), 3u);
  EXPECT_LT(a, ab);  // prefix compares less
  Tuple c(std::vector<Value>{Value::Uint(1), Value::Uint(3)});
  EXPECT_LT(a, c);
}

TEST(TupleTest, HashOrderDependent) {
  Tuple a(std::vector<Value>{Value::Uint(1), Value::Uint(2)});
  Tuple b(std::vector<Value>{Value::Uint(2), Value::Uint(1)});
  EXPECT_NE(a.Hash(), b.Hash());
  Tuple a2(std::vector<Value>{Value::Uint(1), Value::Uint(2)});
  EXPECT_EQ(a.Hash(), a2.Hash());
}

// ---------------------------------------------------------------------------
// Common utilities
// ---------------------------------------------------------------------------

TEST(StringsTest, JoinSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,,c");
  EXPECT_EQ(Split("a,,c", ','), parts);
  EXPECT_EQ(Split("single", ',').size(), 1u);
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SrcIP"), "srcip");
  EXPECT_EQ(ToUpper("flags"), "FLAGS");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
}

TEST(StringsTest, Ipv4RoundTrip) {
  uint32_t ip = 0;
  ASSERT_TRUE(ParseIpv4("192.168.1.200", &ip));
  EXPECT_EQ(ip, 0xC0A801C8u);
  EXPECT_EQ(FormatIpv4(ip), "192.168.1.200");
  EXPECT_FALSE(ParseIpv4("256.1.1.1", &ip));
  EXPECT_FALSE(ParseIpv4("1.2.3", &ip));
  EXPECT_FALSE(ParseIpv4("1.2.3.4.5", &ip));
  EXPECT_FALSE(ParseIpv4("a.b.c.d", &ip));
  EXPECT_FALSE(ParseIpv4("1..2.3", &ip));
}

TEST(HashTest, Mix64SpreadsSmallInputs) {
  // Consecutive integers must land far apart (partitioner balance relies on
  // this for low-entropy keys like IPv4 addresses).
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 1000; ++i) {
    buckets.insert(Mix64(i) >> 56);  // top byte
  }
  EXPECT_GT(buckets.size(), 200u);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, ZipfIsSkewedAndInRange) {
  Rng rng(11);
  ZipfDistribution zipf(100, 1.2);
  size_t rank1 = 0;
  size_t total = 20000;
  for (size_t i = 0; i < total; ++i) {
    size_t r = zipf.Sample(&rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 100u);
    if (r == 1) ++rank1;
  }
  // Rank 1 should take a disproportionate share (well above uniform 1%).
  EXPECT_GT(rank1, total / 20);
}

TEST(StatusTest, CodesAndContext) {
  Status st = Status::NotFound("thing ", 42, " missing");
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "thing 42 missing");
  Status wrapped = st.WithContext("loading config");
  EXPECT_TRUE(wrapped.IsNotFound());
  EXPECT_EQ(wrapped.message(), "loading config: thing 42 missing");
  EXPECT_EQ(Status::OK().ToString(), "OK");
  EXPECT_NE(st.ToString().find("NotFound"), std::string::npos);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  EXPECT_EQ(ok.ValueOr(9), 5);
  Result<int> err = Status::Internal("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInternal());
  EXPECT_EQ(err.ValueOr(9), 9);
}

}  // namespace
}  // namespace streampart
