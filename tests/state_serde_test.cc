/// \file state_serde_test.cc
/// \brief Round-trip property tests for operator state checkpointing: for
/// every stateful operator, running prefix -> CheckpointState -> RestoreState
/// into a fresh instance -> suffix must reproduce the uninterrupted run
/// exactly, on both the per-tuple and the batched execution paths. Also
/// checks blob determinism, rejection of corrupt payloads, and that every
/// mutated checkpoint is either rejected or resumes without crashing.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "common/rng.h"
#include "exec/ops.h"
#include "exec/sketch_op.h"
#include "exec/sliding.h"
#include "plan/query_graph.h"
#include "sketch/sketch.h"
#include "tests/test_util.h"

namespace streampart {
namespace {

using ::streampart::testing::MakePacket;

class StateSerdeTest : public ::testing::Test {
 protected:
  StateSerdeTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {}

  QueryNodePtr Node(const std::string& name, const std::string& gsql) {
    Status st = graph_.AddQuery(name, gsql);
    SP_CHECK(st.ok()) << st.ToString();
    return *graph_.GetQuery(name);
  }

  static OperatorPtr Make(const QueryNodePtr& node) {
    auto op = MakeOperator(node, &UdafRegistry::Default());
    SP_CHECK(op.ok()) << op.status().ToString();
    return std::move(*op);
  }

  /// A multi-epoch, multi-group packet stream; `split` indices into it land
  /// mid-epoch so checkpoints capture open window state.
  static TupleBatch Packets() {
    TupleBatch input;
    for (uint64_t i = 0; i < 48; ++i) {
      input.push_back(MakePacket(/*time=*/i, /*src_ip=*/0xA + i % 5,
                                 /*dest_ip=*/0xB, /*src_port=*/10,
                                 /*dest_port=*/i % 2 ? 80 : 443,
                                 /*len=*/100 + i));
    }
    return input;
  }

  /// Runs `input` through a fresh operator uninterrupted (reference), then
  /// replays it with a checkpoint/restore cut at `split`: the prefix goes
  /// into one instance, its state blob is restored into a second fresh
  /// instance that consumes the suffix. Output emitted before the cut plus
  /// the restored instance's output must equal the reference byte-for-byte.
  void ExpectRoundTrip(const QueryNodePtr& node, const TupleBatch& input,
                       size_t split, bool batched_prefix,
                       bool batched_suffix) {
    TupleBatch reference;
    {
      OperatorPtr ref = Make(node);
      ref->AddSink([&reference](const Tuple& t) { reference.push_back(t); });
      if (batched_prefix || batched_suffix) {
        ref->PushBatch(0, TupleSpan(input.data(), split));
        ref->PushBatch(0, TupleSpan(input.data() + split,
                                    input.size() - split));
      } else {
        for (const Tuple& t : input) ref->Push(0, t);
      }
      ref->Finish(0);
    }

    TupleBatch pre, post;
    std::string blob;
    {
      OperatorPtr first = Make(node);
      first->AddSink([&pre](const Tuple& t) { pre.push_back(t); });
      if (batched_prefix) {
        first->PushBatch(0, TupleSpan(input.data(), split));
      } else {
        for (size_t i = 0; i < split; ++i) first->Push(0, input[i]);
      }
      first->CheckpointState(&blob);

      // The blob is a pure function of logical state: serializing again
      // without new input must give identical bytes.
      std::string again;
      first->CheckpointState(&again);
      EXPECT_EQ(blob, again) << node->name << ": checkpoint not deterministic";
    }
    {
      OperatorPtr second = Make(node);
      ASSERT_OK(second->RestoreState(blob));
      second->AddSink([&post](const Tuple& t) { post.push_back(t); });
      if (batched_suffix) {
        second->PushBatch(0, TupleSpan(input.data() + split,
                                       input.size() - split));
      } else {
        for (size_t i = split; i < input.size(); ++i) {
          second->Push(0, input[i]);
        }
      }
      second->Finish(0);
    }

    TupleBatch resumed = pre;
    resumed.insert(resumed.end(), post.begin(), post.end());
    ASSERT_EQ(resumed.size(), reference.size()) << node->name;
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(testing::BatchToString({resumed[i]}),
                testing::BatchToString({reference[i]}))
          << node->name << ": row " << i;
    }
  }

  /// The two aggregate streams the join tests join on (tb, k).
  void SetUpStreams() {
    left_ = Node("L", "SELECT tb, srcIP as k, SUM(len) as v FROM TCP "
                      "GROUP BY time/10 as tb, srcIP");
    right_ = Node("R", "SELECT tb, srcIP as k, COUNT(*) as v FROM TCP "
                       "GROUP BY time/10 as tb, srcIP");
  }

  static Tuple Row(uint64_t tb, uint64_t k, uint64_t v) {
    return Tuple(
        std::vector<Value>{Value::Uint(tb), Value::Ip(k), Value::Uint(v)});
  }

  /// Interleaved (port, tuple) feed covering several join windows.
  static std::vector<std::pair<size_t, Tuple>> Feed() {
    std::vector<std::pair<size_t, Tuple>> feed;
    for (uint64_t tb = 0; tb < 6; ++tb) {
      for (uint64_t k = 1; k <= 3; ++k) {
        feed.emplace_back(0, Row(tb, k, 10 * tb + k));
        if (k != 2) feed.emplace_back(1, Row(tb, k, 100 * tb + k));
      }
    }
    return feed;
  }

  Catalog catalog_;
  QueryGraph graph_;
  QueryNodePtr left_, right_;
};

// ---------------------------------------------------------------------------
// AggregateOp
// ---------------------------------------------------------------------------

TEST_F(StateSerdeTest, AggregateRoundTripPerTuple) {
  QueryNodePtr node = Node(
      "counts", "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as s FROM TCP "
                "GROUP BY time/10 as tb, srcIP");
  // Cut mid-epoch (time 17 of window [10,20)): open groups cross the cut.
  ExpectRoundTrip(node, Packets(), 17, false, false);
}

TEST_F(StateSerdeTest, AggregateRoundTripBatched) {
  QueryNodePtr node = Node(
      "counts", "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as s FROM TCP "
                "GROUP BY time/10 as tb, srcIP");
  // The batched path uses the packed-key table; the blob carries its groups
  // in the generic layout.
  ExpectRoundTrip(node, Packets(), 17, true, true);
}

TEST_F(StateSerdeTest, AggregateCheckpointIndependentOfDeliveryGranularity) {
  QueryNodePtr node = Node(
      "counts", "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as s FROM TCP "
                "GROUP BY time/10 as tb, srcIP");
  // Push opens the window in the generic table, PushBatch in the packed
  // one; the same logical state must serialize to the same bytes, or the
  // checkpoint byte count (and every host's modeled CPU) would depend on
  // how tuples were delivered.
  const TupleBatch input = Packets();
  for (size_t split : {size_t{0}, size_t{5}, size_t{17}, input.size()}) {
    OperatorPtr per_tuple = Make(node);
    OperatorPtr batched = Make(node);
    for (size_t i = 0; i < split; ++i) per_tuple->Push(0, input[i]);
    batched->PushBatch(0, TupleSpan(input.data(), split));
    std::string tuple_blob, batch_blob;
    per_tuple->CheckpointState(&tuple_blob);
    batched->CheckpointState(&batch_blob);
    EXPECT_EQ(tuple_blob, batch_blob) << "split " << split;
  }
}

TEST_F(StateSerdeTest, AggregateRejectsRetiredPackedEntries) {
  QueryNodePtr node = Node(
      "counts", "SELECT tb, srcIP, COUNT(*) as c FROM TCP "
                "GROUP BY time/10 as tb, srcIP");
  const TupleBatch input = Packets();
  OperatorPtr first = Make(node);
  first->PushBatch(0, TupleSpan(input.data(), 17));
  std::string blob;
  first->CheckpointState(&blob);
  ASSERT_EQ(blob.back(), '\0') << "trailing packed-entry count is 0";
  blob.back() = '\1';
  Status st = Make(node)->RestoreState(blob);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("packed-entry count"), std::string::npos)
      << st.ToString();
}

TEST_F(StateSerdeTest, AggregateRoundTripCrossPath) {
  QueryNodePtr node = Node(
      "counts", "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as s FROM TCP "
                "GROUP BY time/10 as tb, srcIP");
  // Checkpoint taken from the packed representation, resumed per-tuple —
  // and the other way around. The representations must interoperate through
  // the blob exactly as they do through a window boundary.
  ExpectRoundTrip(node, Packets(), 17, true, false);
  ExpectRoundTrip(node, Packets(), 17, false, true);
}

TEST_F(StateSerdeTest, BlockingAggregateRoundTrip) {
  QueryNodePtr node = Node(
      "by_src", "SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP");
  // No temporal key: everything is open state until Finish.
  ExpectRoundTrip(node, Packets(), 23, false, false);
}

TEST_F(StateSerdeTest, AggregateEmptyStateRoundTrip) {
  QueryNodePtr node = Node(
      "counts", "SELECT tb, srcIP, COUNT(*) as c FROM TCP "
                "GROUP BY time/10 as tb, srcIP");
  ExpectRoundTrip(node, Packets(), 0, false, false);
}

TEST_F(StateSerdeTest, AggregateRejectsCorruptBlob) {
  QueryNodePtr node = Node(
      "counts", "SELECT tb, srcIP, COUNT(*) as c FROM TCP "
                "GROUP BY time/10 as tb, srcIP");
  OperatorPtr first = Make(node);
  TupleBatch input = Packets();
  for (size_t i = 0; i < 17; ++i) first->Push(0, input[i]);
  std::string blob;
  first->CheckpointState(&blob);

  EXPECT_FALSE(Make(node)->RestoreState(std::string_view()).ok());
  EXPECT_FALSE(
      Make(node)->RestoreState(std::string_view(blob).substr(0, 3)).ok());
  std::string garbled = blob;
  garbled[garbled.size() / 2] ^= 0x5A;
  garbled.resize(garbled.size() - 2);
  EXPECT_FALSE(Make(node)->RestoreState(garbled).ok());
}

// ---------------------------------------------------------------------------
// JoinOp
// ---------------------------------------------------------------------------

class JoinSerdeTest : public StateSerdeTest {
 protected:
  TupleBatch RunResumed(const QueryNodePtr& join,
                        const std::vector<std::pair<size_t, Tuple>>& feed,
                        size_t split) {
    TupleBatch pre, post;
    std::string blob;
    {
      JoinOp first(join);
      first.AddSink([&pre](const Tuple& t) { pre.push_back(t); });
      for (size_t i = 0; i < split; ++i) {
        first.Push(feed[i].first, feed[i].second);
      }
      first.CheckpointState(&blob);
    }
    JoinOp second(join);
    SP_CHECK(second.RestoreState(blob).ok());
    second.AddSink([&post](const Tuple& t) { post.push_back(t); });
    for (size_t i = split; i < feed.size(); ++i) {
      second.Push(feed[i].first, feed[i].second);
    }
    second.Finish(0);
    second.Finish(1);
    pre.insert(pre.end(), post.begin(), post.end());
    return pre;
  }
};

TEST_F(JoinSerdeTest, InnerJoinRoundTripPreservesWindowsAndWatermarks) {
  SetUpStreams();
  QueryNodePtr join = Node(
      "j", "SELECT L.tb, L.k, L.v, R.v FROM L, R "
           "WHERE L.tb = R.tb and L.k = R.k");
  auto feed = Feed();

  TupleBatch reference;
  {
    JoinOp ref(join);
    ref.AddSink([&reference](const Tuple& t) { reference.push_back(t); });
    for (const auto& [port, t] : feed) ref.Push(port, t);
    ref.Finish(0);
    ref.Finish(1);
  }
  // Cut inside an open window (mid-epoch, watermarks set on both sides).
  for (size_t split : {0ul, 7ul, feed.size() / 2, feed.size() - 3}) {
    TupleBatch resumed = RunResumed(join, feed, split);
    EXPECT_EQ(testing::BatchToString(testing::Sorted(resumed)),
              testing::BatchToString(testing::Sorted(reference)))
        << "split " << split;
  }
}

TEST_F(JoinSerdeTest, OuterJoinRoundTripKeepsMatchedFlags) {
  SetUpStreams();
  QueryNodePtr join = Node(
      "jo", "SELECT L.tb, L.k, L.v, R.v FROM L FULL OUTER JOIN R "
            "WHERE L.tb = R.tb and L.k = R.k");
  auto feed = Feed();
  TupleBatch reference;
  {
    JoinOp ref(join);
    ref.AddSink([&reference](const Tuple& t) { reference.push_back(t); });
    for (const auto& [port, t] : feed) ref.Push(port, t);
    ref.Finish(0);
    ref.Finish(1);
  }
  // Outer joins pad unmatched buffered tuples, so the blob must round-trip
  // the per-tuple matched flag, not just the tuple bytes.
  TupleBatch resumed = RunResumed(join, feed, feed.size() / 2);
  EXPECT_EQ(testing::BatchToString(testing::Sorted(resumed)),
            testing::BatchToString(testing::Sorted(reference)));
}

// ---------------------------------------------------------------------------
// MergeOp
// ---------------------------------------------------------------------------

TEST(MergeSerdeTest, RoundTripPreservesQueuesAndFinishedPorts) {
  SchemaPtr schema = Schema::Make({
      Field{"t", DataType::kUint, TemporalOrder::kIncreasing},
      Field{"v", DataType::kUint, TemporalOrder::kNone},
  });
  auto row = [](uint64_t t, uint64_t v) {
    return Tuple(std::vector<Value>{Value::Uint(t), Value::Uint(v)});
  };

  TupleBatch reference;
  {
    MergeOp ref("m", schema, 3);
    ref.AddSink([&reference](const Tuple& t) { reference.push_back(t); });
    ref.Push(0, row(5, 0));
    ref.Push(0, row(9, 0));
    ref.Push(1, row(3, 1));
    ref.Finish(2);
    ref.Push(1, row(7, 1));
    ref.Push(0, row(11, 0));
    ref.Finish(1);
    ref.Finish(0);
  }

  TupleBatch pre, post;
  std::string blob;
  {
    MergeOp first("m", schema, 3);
    first.AddSink([&pre](const Tuple& t) { pre.push_back(t); });
    first.Push(0, row(5, 0));
    first.Push(0, row(9, 0));
    first.Push(1, row(3, 1));
    first.Finish(2);  // finished-port mask must survive the round trip
    first.CheckpointState(&blob);
  }
  MergeOp second("m", schema, 3);
  ASSERT_OK(second.RestoreState(blob));
  second.AddSink([&post](const Tuple& t) { post.push_back(t); });
  second.Push(1, row(7, 1));
  second.Push(0, row(11, 0));
  second.Finish(1);
  second.Finish(0);

  pre.insert(pre.end(), post.begin(), post.end());
  EXPECT_EQ(testing::BatchToString(pre), testing::BatchToString(reference));
}

// ---------------------------------------------------------------------------
// SlidingAggregateOp
// ---------------------------------------------------------------------------

TEST_F(StateSerdeTest, SlidingAggregateRoundTripKeepsPanePartials) {
  QueryNodePtr node = Node(
      "panes", "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as s FROM TCP "
               "GROUP BY time/10 as tb, srcIP");
  SlidingSpec spec{/*window_panes=*/3, /*slide_panes=*/1};
  TupleBatch input = Packets();

  TupleBatch reference;
  {
    auto ref = SlidingAggregateOp::Make(node, &UdafRegistry::Default(), spec);
    ASSERT_OK(ref.status());
    (*ref)->AddSink([&reference](const Tuple& t) { reference.push_back(t); });
    for (const Tuple& t : input) (*ref)->Push(0, t);
    (*ref)->Finish(0);
  }

  // The cut at time 27 leaves two closed-but-unemitted panes plus an open
  // one — all three must cross through the blob for later windows to
  // super-aggregate correctly.
  for (size_t split : {0ul, 27ul, 40ul}) {
    TupleBatch pre, post;
    std::string blob;
    {
      auto first =
          SlidingAggregateOp::Make(node, &UdafRegistry::Default(), spec);
      ASSERT_OK(first.status());
      (*first)->AddSink([&pre](const Tuple& t) { pre.push_back(t); });
      for (size_t i = 0; i < split; ++i) (*first)->Push(0, input[i]);
      (*first)->CheckpointState(&blob);
      std::string again;
      (*first)->CheckpointState(&again);
      EXPECT_EQ(blob, again);
    }
    auto second =
        SlidingAggregateOp::Make(node, &UdafRegistry::Default(), spec);
    ASSERT_OK(second.status());
    ASSERT_OK((*second)->RestoreState(blob));
    (*second)->AddSink([&post](const Tuple& t) { post.push_back(t); });
    for (size_t i = split; i < input.size(); ++i) (*second)->Push(0, input[i]);
    (*second)->Finish(0);

    pre.insert(pre.end(), post.begin(), post.end());
    EXPECT_EQ(testing::BatchToString(pre), testing::BatchToString(reference))
        << "split " << split;
  }
}

// ---------------------------------------------------------------------------
// Stateless operators
// ---------------------------------------------------------------------------

TEST_F(StateSerdeTest, StatelessOperatorHasEmptyBlobAndRejectsPayload) {
  QueryNodePtr node = Node("web", "SELECT time, srcIP FROM TCP "
                                  "WHERE destPort = 80");
  OperatorPtr op = Make(node);
  op->Push(0, MakePacket(1, 0xA, 0xB, 10, 80, 100));
  std::string blob;
  op->CheckpointState(&blob);
  EXPECT_TRUE(blob.empty());

  OperatorPtr fresh = Make(node);
  EXPECT_OK(fresh->RestoreState(std::string_view()));
  EXPECT_FALSE(fresh->RestoreState("unexpected").ok());
}

// ---------------------------------------------------------------------------
// Restores that would crash later
// ---------------------------------------------------------------------------

// Each blob below is well-framed, so a decoder that checks only framing
// accepts it; the restored operator then reads past a tuple's end (or
// aborts) on its next push or flush.

/// \p blob with the group key whose varint arity sits at \p arity_at
/// narrowed by its first value (arity and key bytes both rewritten).
std::string DropFirstKeyValue(const std::string& blob, size_t arity_at) {
  size_t offset = arity_at;
  uint64_t arity = 0;
  SP_CHECK(GetVarint(blob, &offset, &arity).ok() && arity > 0);
  Value first;
  SP_CHECK(DecodeValue(blob, &offset, &first).ok());
  std::string out = blob.substr(0, arity_at);
  PutVarint(arity - 1, &out);
  out += blob.substr(offset);
  return out;
}

TEST_F(StateSerdeTest, AggregateAndSlidingRejectNarrowGroupKey) {
  QueryNodePtr node = Node(
      "counts", "SELECT tb, srcIP, COUNT(*) as c FROM TCP "
                "GROUP BY time/10 as tb, srcIP");
  const TupleBatch input = Packets();

  // AggregateOp, per-tuple groups: u8 has-epoch, epoch value, varint group
  // count, then the first group's key arity.
  OperatorPtr agg = Make(node);
  for (size_t i = 0; i < 17; ++i) agg->Push(0, input[i]);
  std::string blob;
  agg->CheckpointState(&blob);
  size_t offset = 1;
  Value epoch;
  uint64_t count = 0;
  ASSERT_OK(DecodeValue(blob, &offset, &epoch));
  ASSERT_OK(GetVarint(blob, &offset, &count));
  ASSERT_GT(count, 0u);
  EXPECT_OK(Make(node)->RestoreState(blob));
  EXPECT_FALSE(Make(node)->RestoreState(DropFirstKeyValue(blob, offset)).ok());

  // SlidingAggregateOp: u8 has-pane, varint pane, varint next end, varint
  // open-group count, then the first open group's key arity.
  auto sliding = [&node] {
    auto op = SlidingAggregateOp::Make(node, &UdafRegistry::Default(),
                                       SlidingSpec{3, 1});
    SP_CHECK(op.ok()) << op.status().ToString();
    return std::move(*op);
  };
  auto first = sliding();
  for (size_t i = 0; i < 17; ++i) first->Push(0, input[i]);
  blob.clear();
  first->CheckpointState(&blob);
  offset = 1;
  uint64_t skipped = 0;
  for (int field = 0; field < 3; ++field) {
    ASSERT_OK(GetVarint(blob, &offset, &skipped));
  }
  ASSERT_GT(skipped, 0u);  // open groups
  EXPECT_OK(sliding()->RestoreState(blob));
  EXPECT_FALSE(sliding()->RestoreState(DropFirstKeyValue(blob, offset)).ok());
}

TEST(MergeSerdeTest, RejectsQueuedTupleNarrowerThanSchema) {
  SchemaPtr schema = Schema::Make({
      Field{"t", DataType::kUint, TemporalOrder::kIncreasing},
      Field{"v", DataType::kUint, TemporalOrder::kNone},
  });
  std::string blob;
  blob.push_back(0);  // port 0: live, one queued tuple of arity 1
  PutVarint(1, &blob);
  EncodeTuple(Tuple(std::vector<Value>{Value::Uint(5)}), &blob);
  blob.push_back(0);  // port 1: live, empty
  PutVarint(0, &blob);
  MergeOp op("m", schema, 2);
  EXPECT_FALSE(op.RestoreState(blob).ok());
}

TEST_F(JoinSerdeTest, RejectsBufferedTupleOrWindowKeyOfWrongArity) {
  SetUpStreams();
  QueryNodePtr join = Node(
      "j", "SELECT L.tb, L.k, L.v, R.v FROM L, R "
           "WHERE L.tb = R.tb and L.k = R.k");
  // No watermarks, one window holding one left tuple.
  auto blob = [](const std::vector<Value>& key, const Tuple& left) {
    std::string out = {0, 0};
    PutVarint(1, &out);
    PutVarint(key.size(), &out);
    for (const Value& v : key) EncodeValue(v, &out);
    PutVarint(1, &out);
    EncodeTuple(left, &out);
    out.push_back(0);  // matched
    PutVarint(0, &out);
    return out;
  };
  const Tuple good_row = Row(0, 1, 1);
  EXPECT_OK(JoinOp(join).RestoreState(blob({Value::Uint(0)}, good_row)));
  // A buffered left tuple narrower than L's schema.
  EXPECT_FALSE(JoinOp(join)
                   .RestoreState(blob({Value::Uint(0)},
                                      Tuple(std::vector<Value>{
                                          Value::Uint(0)})))
                   .ok());
  // A window key with two values; the join has one window predicate.
  EXPECT_FALSE(JoinOp(join)
                   .RestoreState(blob({Value::Uint(0), Value::Uint(1)},
                                      good_row))
                   .ok());
}

TEST_F(StateSerdeTest, SketchRestoreRejectsCandidatesAFlushCannotUse) {
  QueryNodePtr node = Node(
      "approx", "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
                "GROUP BY time/10 as tb, srcIP APPROX 0.05");
  SketchSpec spec;
  spec.eps = 0.05;
  std::string grids;
  sketch::CmSketch(spec.Grid()).Serialize(&grids);  // one aggregate
  auto blob = [&grids](bool with_epoch, const std::string& key) {
    std::string out;
    out.push_back(with_epoch ? 1 : 0);
    if (with_epoch) EncodeValue(Value::Uint(1), &out);
    out += grids;
    sketch::PutU64(&out, 1);
    sketch::PutBytes(&out, key);
    return out;
  };
  // A candidate key is the encoded srcIP: exactly one value.
  std::string good_key;
  EncodeValue(Value::Ip(0xAA), &good_key);
  const std::string unknown_tag(1, '\x09');
  const std::string two_values = good_key + good_key;

  EXPECT_OK(SketchOp(node, spec).RestoreState(blob(true, good_key)));
  EXPECT_OK(SketchMergeOp(node, spec).RestoreState(blob(true, good_key)));
  for (const std::string& key : {unknown_tag, two_values}) {
    EXPECT_FALSE(SketchMergeOp(node, spec).RestoreState(blob(true, key)).ok());
    EXPECT_FALSE(SketchOp(node, spec).RestoreState(blob(true, key)).ok());
  }
  // Candidates with no open epoch: a flush would read the missing epoch.
  EXPECT_FALSE(
      SketchMergeOp(node, spec).RestoreState(blob(false, good_key)).ok());
  EXPECT_FALSE(SketchOp(node, spec).RestoreState(blob(false, good_key)).ok());
}

// ---------------------------------------------------------------------------
// Mutated checkpoints
// ---------------------------------------------------------------------------

/// One stateful operator under the mutation property: a factory, the
/// (port, tuple) prefix its checkpoint is taken after, and the suffix a
/// restored instance consumes before finishing every port.
struct MutationCase {
  std::string name;
  std::function<OperatorPtr()> make;
  size_t ports = 1;
  std::vector<std::pair<size_t, Tuple>> prefix;
  std::vector<std::pair<size_t, Tuple>> suffix;
};

std::vector<std::pair<size_t, Tuple>> OnPortZero(const TupleBatch& batch,
                                                 size_t begin, size_t end) {
  std::vector<std::pair<size_t, Tuple>> out;
  for (size_t i = begin; i < end; ++i) out.emplace_back(0, batch[i]);
  return out;
}

TEST_F(StateSerdeTest, MutatedCheckpointsAreRejectedOrResumeCleanly) {
  const TupleBatch packets = Packets();
  std::vector<MutationCase> cases;
  auto add = [&cases](std::string name, std::function<OperatorPtr()> make,
                      size_t ports,
                      std::vector<std::pair<size_t, Tuple>> feed,
                      size_t split) {
    MutationCase c{std::move(name), std::move(make), ports, {}, {}};
    c.prefix.assign(feed.begin(), feed.begin() + split);
    c.suffix.assign(feed.begin() + split, feed.end());
    cases.push_back(std::move(c));
  };
  const std::vector<std::pair<size_t, Tuple>> packet_feed =
      OnPortZero(packets, 0, packets.size());

  QueryNodePtr windowed = Node(
      "counts", "SELECT tb, srcIP, COUNT(*) as c, SUM(len) as s FROM TCP "
                "GROUP BY time/10 as tb, srcIP");
  add("aggregate/windowed", [windowed] { return Make(windowed); }, 1,
      packet_feed, 17);
  QueryNodePtr blocking = Node(
      "by_src", "SELECT srcIP, COUNT(*) as c FROM TCP GROUP BY srcIP");
  add("aggregate/blocking", [blocking] { return Make(blocking); }, 1,
      packet_feed, 23);
  add("sliding",
      [windowed]() -> OperatorPtr {
        auto op = SlidingAggregateOp::Make(windowed, &UdafRegistry::Default(),
                                           SlidingSpec{3, 1});
        SP_CHECK(op.ok()) << op.status().ToString();
        return std::move(*op);
      },
      1, packet_feed, 27);

  SchemaPtr merge_schema = Schema::Make({
      Field{"t", DataType::kUint, TemporalOrder::kIncreasing},
      Field{"v", DataType::kUint, TemporalOrder::kNone},
  });
  auto merge_row = [](uint64_t t, uint64_t v) {
    return Tuple(std::vector<Value>{Value::Uint(t), Value::Uint(v)});
  };
  add("merge",
      [merge_schema]() -> OperatorPtr {
        return std::make_unique<MergeOp>("m", merge_schema, 3);
      },
      3,
      {{0, merge_row(5, 0)}, {0, merge_row(9, 0)}, {1, merge_row(3, 1)},
       {1, merge_row(7, 1)}, {0, merge_row(11, 0)}, {2, merge_row(12, 2)}},
      3);

  SetUpStreams();
  QueryNodePtr inner = Node(
      "j", "SELECT L.tb, L.k, L.v, R.v FROM L, R "
           "WHERE L.tb = R.tb and L.k = R.k");
  QueryNodePtr outer = Node(
      "jo", "SELECT L.tb, L.k, L.v, R.v FROM L FULL OUTER JOIN R "
            "WHERE L.tb = R.tb and L.k = R.k");
  const auto join_feed = Feed();
  for (const QueryNodePtr& join : {inner, outer}) {
    add(join == inner ? "join/inner" : "join/outer",
        [join]() -> OperatorPtr { return std::make_unique<JoinOp>(join); },
        2, join_feed, join_feed.size() / 2);
  }

  QueryNodePtr approx = Node(
      "approx", "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
                "GROUP BY time/10 as tb, srcIP APPROX 0.05");
  SketchSpec spec;
  spec.eps = 0.05;
  add("sketch/host",
      [approx, spec]() -> OperatorPtr {
        return std::make_unique<SketchOp>(approx, spec);
      },
      1, packet_feed, 17);
  TupleBatch summaries;
  {
    SketchOp host(approx, spec);
    host.AddSink([&summaries](const Tuple& t) { summaries.push_back(t); });
    for (const Tuple& t : packets) host.Push(0, t);
    host.Finish(0);
  }
  ASSERT_GE(summaries.size(), 3u);
  add("sketch/merge",
      [approx, spec]() -> OperatorPtr {
        return std::make_unique<SketchMergeOp>(approx, spec);
      },
      1, OnPortZero(summaries, 0, summaries.size()), 2);

  Rng rng(0x5eed0025);
  constexpr int kMutants = 3000;
  for (const MutationCase& c : cases) {
    std::string blob;
    {
      OperatorPtr source = c.make();
      for (const auto& [port, t] : c.prefix) source->Push(port, t);
      source->CheckpointState(&blob);
    }
    int rejected = 0;
    int resumed = 0;
    for (int m = 0; m < kMutants; ++m) {
      const std::string mutant = testing::MutateEncoding(blob, &rng);
      OperatorPtr op = c.make();
      if (!op->RestoreState(mutant).ok()) {
        ++rejected;
        continue;
      }
      // An accepted mutant is some valid state: the operator must consume
      // the suffix, finish, and checkpoint again.
      op->AddSink([](const Tuple&) {});
      for (const auto& [port, t] : c.suffix) op->Push(port, t);
      for (size_t p = 0; p < c.ports; ++p) op->Finish(p);
      std::string again;
      op->CheckpointState(&again);
      ++resumed;
    }
    // Both outcomes occur, so neither side of the property is vacuous.
    EXPECT_GT(rejected, 0) << c.name;
    EXPECT_GT(resumed, 0) << c.name;
  }
}

}  // namespace
}  // namespace streampart
