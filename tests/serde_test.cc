/// \file serde_test.cc
/// \brief Wire-format tests: varints, round trips over every value type,
/// exact size accounting, malformed-input rejection, a randomized sweep, and
/// a mutation property over batch encodings.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"
#include "types/serde.h"

namespace streampart {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  const uint64_t cases[] = {0,    1,        0x7F,      0x80,
                            0xFF, 0x3FFF,   0x4000,    1ULL << 32,
                            ~0ULL, (~0ULL) >> 1, 0x8000000000000000ULL};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint(v, &buf);
    size_t offset = 0;
    uint64_t back = 0;
    ASSERT_OK(GetVarint(buf, &offset, &back));
    EXPECT_EQ(back, v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(VarintTest, RejectsTruncation) {
  std::string buf;
  PutVarint(1ULL << 40, &buf);
  buf.pop_back();
  size_t offset = 0;
  uint64_t v;
  EXPECT_TRUE(GetVarint(buf, &offset, &v).IsInvalidArgument());
}

TEST(SerdeTest, RoundTripsEveryValueType) {
  Tuple t(std::vector<Value>{
      Value::Null(), Value::Uint(0), Value::Uint(~0ULL),
      Value::Int(-1234567), Value::Int(42), Value::Double(3.14159),
      Value::Double(-0.0), Value::Bool(true), Value::Bool(false),
      Value::Ip(0xC0A80101), Value::String(""), Value::String("hello world"),
  });
  ASSERT_OK_AND_ASSIGN(Tuple back, RoundTripTuple(t));
  ASSERT_EQ(back.size(), t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.at(i), t.at(i)) << "field " << i;
    EXPECT_EQ(back.at(i).type(), t.at(i).type()) << "field " << i;
  }
}

TEST(SerdeTest, EncodedSizeIsExact) {
  Tuple t(std::vector<Value>{Value::Uint(300), Value::String("abc"),
                             Value::Double(1.5), Value::Null()});
  std::string buf;
  EncodeTuple(t, &buf);
  EXPECT_EQ(buf.size(), EncodedTupleSize(t));
}

TEST(SerdeTest, EmptyTuple) {
  ASSERT_OK_AND_ASSIGN(Tuple back, RoundTripTuple(Tuple()));
  EXPECT_EQ(back.size(), 0u);
}

TEST(SerdeTest, MultipleTuplesInOneBuffer) {
  Tuple a(std::vector<Value>{Value::Uint(1)});
  Tuple b(std::vector<Value>{Value::String("x"), Value::Int(-5)});
  std::string buf;
  EncodeTuple(a, &buf);
  EncodeTuple(b, &buf);
  size_t offset = 0;
  Tuple back_a, back_b;
  ASSERT_OK(DecodeTuple(buf, &offset, &back_a));
  ASSERT_OK(DecodeTuple(buf, &offset, &back_b));
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(back_a, a);
  EXPECT_EQ(back_b, b);
}

TEST(SerdeTest, RejectsMalformedInput) {
  Tuple out;
  size_t offset = 0;
  // Truncated mid-tuple.
  Tuple t(std::vector<Value>{Value::String("hello")});
  std::string buf;
  EncodeTuple(t, &buf);
  std::string truncated = buf.substr(0, buf.size() - 2);
  EXPECT_FALSE(DecodeTuple(truncated, &offset, &out).ok());
  // Bad type tag.
  offset = 0;
  std::string bad;
  PutVarint(1, &bad);
  bad.push_back(static_cast<char>(99));
  EXPECT_FALSE(DecodeTuple(bad, &offset, &out).ok());
  // Implausible field count.
  offset = 0;
  std::string huge;
  PutVarint(1ULL << 40, &huge);
  EXPECT_FALSE(DecodeTuple(huge, &offset, &out).ok());
  // Empty input.
  offset = 0;
  EXPECT_FALSE(DecodeTuple("", &offset, &out).ok());
  // One string field whose length varint is 2^64 - 12. The input is 12 bytes
  // long, so `offset + len` wraps to 0: a bounds check written that way
  // passed, moved the offset back to 0, and DecodeBatch looped forever.
  offset = 0;
  std::string wraps;
  PutVarint(1, &wraps);
  wraps.push_back(static_cast<char>(DataType::kString));
  PutVarint(~uint64_t{0} - 11, &wraps);
  ASSERT_EQ(wraps.size(), 12u);
  EXPECT_FALSE(DecodeTuple(wraps, &offset, &out).ok());
}

TEST(SerdeTest, MutatedBatchesAreRejectedOrRoundTrip) {
  // Every mutant of a valid batch encoding either fails with a Status or
  // decodes to tuples whose own encode -> decode round trip is
  // byte-identical: no hang, no exception, no out-of-bounds read.
  TupleBatch batch;
  for (uint64_t i = 0; i < 6; ++i) {
    batch.push_back(testing::MakePacket(60 + i, 0x0a000001 + i, 0x0a000100,
                                        1024 + i, 80, 40 + 100 * i));
    if (i == 2) {
      batch.push_back(Tuple(std::vector<Value>{Value::String("scan"),
                                               Value::Uint(i)}));
    }
  }
  batch.push_back(Tuple(std::vector<Value>{
      Value::Null(), Value::Int(-7), Value::Double(2.5), Value::Bool(true),
      Value::String("suspicious"), Value::Ip(0xc0a80001)}));
  std::string valid;
  EncodeBatch(batch, &valid);
  Rng rng(20080609);
  int rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string mutant = testing::MutateEncoding(valid, &rng);
    // Walk the mutant tuple by tuple first. A decoded tuple never encodes to
    // more bytes than it was decoded from, so a bounds check that wraps and
    // moves the offset backwards fails here instead of sending DecodeBatch
    // round in circles.
    Status walked;
    size_t offset = 0;
    while (walked.ok() && offset < mutant.size()) {
      const size_t before = offset;
      Tuple t;
      walked = DecodeTuple(mutant, &offset, &t);
      if (walked.ok()) {
        ASSERT_GE(offset, before + EncodedTupleSize(t)) << "mutant " << i;
      }
    }
    auto decoded = DecodeBatch(mutant);
    ASSERT_EQ(decoded.ok(), walked.ok()) << "mutant " << i;
    if (!decoded.ok()) {
      ++rejected;
      continue;
    }
    std::string once;
    EncodeBatch(*decoded, &once);
    auto again = DecodeBatch(once);
    ASSERT_OK(again.status());
    std::string twice;
    EncodeBatch(*again, &twice);
    ASSERT_EQ(once, twice) << "mutant " << i;
  }
  EXPECT_GT(rejected, 0) << "the mutator never broke the encoding";
}

TEST(SerdeTest, RandomizedRoundTrips) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Value> values;
    size_t n = rng.Uniform(0, 12);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Uniform(0, 6)) {
        case 0: values.push_back(Value::Null()); break;
        case 1: values.push_back(Value::Uint(rng.Uniform(0, ~0ULL))); break;
        case 2:
          values.push_back(
              Value::Int(static_cast<int64_t>(rng.Uniform(0, ~0ULL))));
          break;
        case 3:
          values.push_back(Value::Double(rng.UniformReal() * 1e9 - 5e8));
          break;
        case 4: values.push_back(Value::Bool(rng.Chance(0.5))); break;
        case 5:
          values.push_back(
              Value::Ip(static_cast<uint32_t>(rng.Uniform(0, ~0u))));
          break;
        default: {
          std::string s;
          size_t len = rng.Uniform(0, 40);
          for (size_t k = 0; k < len; ++k) {
            s.push_back(static_cast<char>(rng.Uniform(0, 255)));
          }
          values.push_back(Value::String(std::move(s)));
        }
      }
    }
    Tuple t(std::move(values));
    std::string buf;
    EncodeTuple(t, &buf);
    ASSERT_EQ(buf.size(), EncodedTupleSize(t)) << "trial " << trial;
    size_t offset = 0;
    Tuple back;
    ASSERT_OK(DecodeTuple(buf, &offset, &back));
    ASSERT_EQ(offset, buf.size());
    ASSERT_EQ(back, t) << "trial " << trial;
  }
}

}  // namespace
}  // namespace streampart
