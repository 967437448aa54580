/// \file sketch_test.cc
/// \brief The sketch leg, bottom up: the mergeable summaries in src/sketch/
/// (count-min, exponential histograms, ECM, heavy hitters, quantiles), the
/// SketchOp/SketchMergeOp pair, and the optimizer's third outcome end to
/// end against an exact oracle. Every estimate is checked against the bound
/// the ledger reports, and exact plans are checked byte-identical whether or
/// not the sketch machinery is compiled into the run.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/hash.h"
#include "dist/experiment.h"
#include "exec/local_engine.h"
#include "exec/sketch_op.h"
#include "plan/query_graph.h"
#include "sketch/sketch.h"
#include "tests/test_util.h"

namespace streampart {
namespace {

using ::streampart::testing::MakePacket;
using namespace streampart::sketch;

constexpr uint64_t kSeeds[] = {0x5eedc0de, 0xfeedbeef, 0x12345678};

/// Zipf-ish synthetic key frequencies: key k out of \p keys gets
/// (keys - k) * scale updates, so exact counts span a wide range.
std::map<uint64_t, uint64_t> SkewedCounts(uint64_t keys, uint64_t scale) {
  std::map<uint64_t, uint64_t> exact;
  for (uint64_t k = 0; k < keys; ++k) exact[k] = (keys - k) * scale;
  return exact;
}

// ---------------------------------------------------------------------------
// CmSketch
// ---------------------------------------------------------------------------

TEST(CmSketchTest, EstimatesWithinBoundAcrossSeeds) {
  for (uint64_t seed : kSeeds) {
    CmParams params = CmParams::FromErrorBound(0.01, 0.001, seed);
    CmSketch cm(params);
    std::map<uint64_t, uint64_t> exact = SkewedCounts(200, 3);
    for (const auto& [k, n] : exact) cm.Update(HashCombine(seed, k), n);
    const double bound = params.eps() * static_cast<double>(cm.total());
    for (const auto& [k, n] : exact) {
      uint64_t est = cm.Estimate(HashCombine(seed, k));
      EXPECT_GE(est, n) << "under-count, seed " << seed << " key " << k;
      EXPECT_LE(static_cast<double>(est - n), bound)
          << "over-count beyond eps*total, seed " << seed << " key " << k;
    }
  }
}

TEST(CmSketchTest, ConservativeUpdateNeverUnderCountsAndOnlyTightens) {
  for (uint64_t seed : kSeeds) {
    CmParams params = CmParams::FromErrorBound(0.02, 0.01, seed);
    CmSketch linear(params), conservative(params);
    std::map<uint64_t, uint64_t> exact = SkewedCounts(300, 2);
    for (const auto& [k, n] : exact) {
      // Interleave per-item updates so the conservative path sees realistic
      // collision pressure rather than one bulk delta per key.
      for (uint64_t i = 0; i < n; i += 7) {
        uint64_t d = std::min<uint64_t>(7, n - i);
        linear.Update(HashCombine(seed, k), d);
        conservative.UpdateConservative(HashCombine(seed, k), d);
      }
    }
    EXPECT_EQ(linear.total(), conservative.total());
    for (const auto& [k, n] : exact) {
      uint64_t le = linear.Estimate(HashCombine(seed, k));
      uint64_t ce = conservative.Estimate(HashCombine(seed, k));
      EXPECT_GE(ce, n) << "conservative under-count, key " << k;
      EXPECT_LE(ce, le) << "conservative looser than linear, key " << k;
    }
  }
}

TEST(CmSketchTest, MergeIsAssociativeAndCommutativeAtSerializeLevel) {
  CmParams params = CmParams::FromErrorBound(0.05, 0.01, 42);
  auto build = [&](uint64_t salt) {
    CmSketch s(params);
    for (uint64_t k = 0; k < 50; ++k) s.Update(Mix64(salt ^ k), salt + k);
    return s;
  };
  CmSketch a = build(1), b = build(2), c = build(3);

  CmSketch ab = a, ba = b;
  ASSERT_OK(ab.Merge(b));
  ASSERT_OK(ba.Merge(a));
  std::string ab_bytes, ba_bytes;
  ab.Serialize(&ab_bytes);
  ba.Serialize(&ba_bytes);
  EXPECT_EQ(ab_bytes, ba_bytes) << "merge not commutative";

  CmSketch ab_c = ab, bc = b, a_bc = a;
  ASSERT_OK(ab_c.Merge(c));
  ASSERT_OK(bc.Merge(c));
  ASSERT_OK(a_bc.Merge(bc));
  std::string left, right;
  ab_c.Serialize(&left);
  a_bc.Serialize(&right);
  EXPECT_EQ(left, right) << "merge not associative";
}

TEST(CmSketchTest, MergeRejectsMismatchedParams) {
  CmSketch a(CmParams{64, 4, 1});
  CmSketch b(CmParams{64, 4, 2});
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(CmSketchTest, SerializeRoundTripsByteIdentically) {
  CmParams params = CmParams::FromErrorBound(0.03, 0.01, 7);
  CmSketch s(params);
  for (uint64_t k = 0; k < 100; ++k) s.Update(Mix64(k), k + 1);
  std::string bytes;
  s.Serialize(&bytes);
  EXPECT_EQ(bytes.size(), s.SerializedSize());
  size_t offset = 0;
  ASSERT_OK_AND_ASSIGN(CmSketch back, CmSketch::Deserialize(bytes, &offset));
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(back, s);
}

// ---------------------------------------------------------------------------
// EhCell / EcmSketch
// ---------------------------------------------------------------------------

TEST(EhCellTest, WindowEstimatesWithinRelativeError) {
  const double eps = 0.1;
  EhCell eh(EhCell::CapacityForError(eps));
  const uint64_t n = 2000;
  for (uint64_t ts = 1; ts <= n; ++ts) eh.Add(ts);
  EXPECT_EQ(eh.total(), n);
  for (uint64_t since : {1ull, 101ull, 777ull, 1500ull, 1999ull}) {
    uint64_t exact = n - since + 1;
    uint64_t est = eh.EstimateSince(since);
    EXPECT_LE(std::abs(static_cast<double>(est) - static_cast<double>(exact)),
              eps * static_cast<double>(exact) + 1.0)
        << "window since " << since;
  }
}

TEST(EcmSketchTest, SlidingEstimatesWithinCombinedBoundAcrossSeeds) {
  for (uint64_t seed : kSeeds) {
    const double eps_cm = 0.02, eps_window = 0.1;
    EcmParams params = EcmParams::FromErrorBound(eps_cm, 0.001, eps_window,
                                                 seed);
    EcmSketch ecm(params);
    // 20 keys, key k appears every (k + 1) ticks over 3000 ticks.
    std::map<uint64_t, std::vector<uint64_t>> arrivals;
    for (uint64_t k = 0; k < 20; ++k) {
      for (uint64_t ts = k + 1; ts <= 3000; ts += k + 1) {
        arrivals[k].push_back(ts);
        ecm.Update(HashCombine(seed, k), ts);
      }
    }
    const uint64_t since = 1000;
    uint64_t window_total = 0;
    for (const auto& [k, v] : arrivals) {
      for (uint64_t ts : v) window_total += ts >= since ? 1 : 0;
    }
    for (const auto& [k, v] : arrivals) {
      uint64_t exact = 0;
      for (uint64_t ts : v) exact += ts >= since ? 1 : 0;
      uint64_t est = ecm.EstimateSince(HashCombine(seed, k), since);
      // Both error sources stack: the window approximation (relative, on
      // this key's own mass) plus the count-min over-count (additive, on
      // the window's total mass).
      double slack = eps_window * static_cast<double>(exact) +
                     eps_cm * static_cast<double>(window_total) + 1.0;
      EXPECT_LE(std::abs(static_cast<double>(est) - static_cast<double>(exact)),
                slack)
          << "seed " << seed << " key " << k;
    }
  }
}

TEST(EcmSketchTest, MergeIsCommutativeAtSerializeLevel) {
  EcmParams params = EcmParams::FromErrorBound(0.05, 0.01, 0.2, 99);
  auto build = [&](uint64_t salt) {
    EcmSketch s(params);
    for (uint64_t ts = 1; ts <= 500; ++ts) s.Update(Mix64(salt ^ (ts % 13)), ts);
    return s;
  };
  EcmSketch a = build(1), b = build(2);
  EcmSketch ab = a, ba = b;
  ASSERT_OK(ab.Merge(b));
  ASSERT_OK(ba.Merge(a));
  std::string ab_bytes, ba_bytes;
  ab.Serialize(&ab_bytes);
  ba.Serialize(&ba_bytes);
  EXPECT_EQ(ab_bytes, ba_bytes);
}

// ---------------------------------------------------------------------------
// HeavyHitterSketch / QuantileSketch
// ---------------------------------------------------------------------------

TEST(HeavyHitterTest, ReportsEveryTrueHeavyHitterAcrossSeeds) {
  for (uint64_t seed : kSeeds) {
    HeavyHitterSketch hh(CmParams::FromErrorBound(0.005, 0.001, seed), 64);
    // 5 heavy keys carry ~79% of the mass; 100 light keys the rest.
    std::map<std::string, uint64_t> exact;
    for (int k = 0; k < 5; ++k) exact["heavy" + std::to_string(k)] = 3000;
    for (int k = 0; k < 100; ++k) exact["light" + std::to_string(k)] = 40;
    for (const auto& [key, n] : exact) hh.Update(key, n);
    const double phi = 0.05;  // threshold 950: heavies clear it, lights can't
    std::vector<HeavyHitterSketch::Hitter> hitters = hh.HeavyHitters(phi);
    std::map<std::string, uint64_t> reported;
    for (const auto& h : hitters) reported[h.key] = h.estimate;
    for (int k = 0; k < 5; ++k) {
      std::string key = "heavy" + std::to_string(k);
      ASSERT_TRUE(reported.count(key)) << "missed " << key << " seed " << seed;
      EXPECT_GE(reported[key], exact[key]);
    }
  }
}

TEST(QuantileTest, QuantilesWithinRankErrorAcrossSeeds) {
  for (uint64_t seed : kSeeds) {
    const double eps = 0.02;
    QuantileSketch q = QuantileSketch::FromErrorBound(eps, 0.001, 16, seed);
    const uint64_t n = 10000;  // uniform over [0, 10000)
    for (uint64_t v = 0; v < n; ++v) q.Update(v);
    for (double phi : {0.1, 0.5, 0.9, 0.99}) {
      uint64_t v = q.Quantile(phi);
      double rank = static_cast<double>(v);  // uniform: rank(v) == v
      EXPECT_NEAR(rank, phi * static_cast<double>(n),
                  eps * static_cast<double>(n) + 1.0)
          << "phi " << phi << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Decoders: mutated blobs are rejected with a Status, never a throw
// ---------------------------------------------------------------------------

TEST(SketchCodecTest, GetBytesRejectsLengthThatWrapsTheOffset) {
  // A length of 2^64 - 4 after an 8-byte prefix: `offset + n` wraps to 4,
  // which passed a bounds check written that way and let assign() throw.
  std::string blob;
  PutU64(&blob, ~uint64_t{0} - 3);
  blob += "abc";
  size_t offset = 0;
  std::string out;
  EXPECT_FALSE(GetBytes(blob, &offset, &out).ok());
}

TEST(SketchCodecTest, CmDeserializeRejectsGridLargerThanBlob) {
  CmSketch cm(CmParams::FromErrorBound(0.5, 0.2, 1));
  std::string blob;
  cm.Serialize(&blob);
  // Width and depth (u32 each) follow the 4-byte magic.
  for (size_t i = 4; i < 12; ++i) blob[i] = '\xff';
  size_t offset = 0;
  EXPECT_FALSE(CmSketch::Deserialize(blob, &offset).ok());
}

TEST(SketchCodecTest, EhDeserializeRejectsBucketCountLargerThanBlob) {
  EhCell cell(4);
  cell.Add(1);
  cell.Add(2);
  std::string blob;
  cell.Serialize(&blob);
  // The u64 bucket count follows magic (4), k (4) and total (8).
  for (size_t i = 16; i < 24; ++i) blob[i] = '\xff';
  size_t offset = 0;
  EXPECT_FALSE(EhCell::Deserialize(blob, &offset).ok());
}

TEST(SketchCodecTest, EcmAndQuantileRejectHeaderSizesLargerThanBlob) {
  EcmSketch ecm(EcmParams::FromErrorBound(0.9, 0.5, 0.5, 1));
  std::string ecm_blob;
  ecm.Serialize(&ecm_blob);
  for (size_t i = 4; i < 12; ++i) ecm_blob[i] = '\xff';  // width, depth
  size_t offset = 0;
  EXPECT_FALSE(EcmSketch::Deserialize(ecm_blob, &offset).ok());

  QuantileSketch qs = QuantileSketch::FromErrorBound(0.5, 0.5, 4, 1);
  std::string qs_blob;
  qs.Serialize(&qs_blob);
  for (size_t i = 4; i < 8; ++i) qs_blob[i] = '\xff';  // log_universe
  offset = 0;
  EXPECT_FALSE(QuantileSketch::Deserialize(qs_blob, &offset).ok());
}

/// Every mutant of \p valid's encoding either fails to deserialize with a
/// Status, or deserializes to a sketch whose own serialize -> deserialize
/// round trip is identical.
template <typename Sketch>
void ExpectMutantsRejectedOrRoundTrip(const Sketch& valid, const char* what,
                                      Rng* rng) {
  std::string bytes;
  valid.Serialize(&bytes);
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = testing::MutateEncoding(bytes, rng);
    size_t offset = 0;
    auto decoded = Sketch::Deserialize(mutant, &offset);
    if (!decoded.ok()) {
      ++rejected;
      continue;
    }
    std::string once;
    decoded->Serialize(&once);
    size_t again_offset = 0;
    auto again = Sketch::Deserialize(once, &again_offset);
    ASSERT_TRUE(again.ok()) << what << " mutant " << i << ": "
                            << again.status().ToString();
    EXPECT_EQ(again_offset, once.size()) << what << " mutant " << i;
    EXPECT_TRUE(*again == *decoded) << what << " mutant " << i;
  }
  EXPECT_GT(rejected, 0) << what << ": the mutator never broke the encoding";
}

TEST(SketchCodecTest, MutatedBlobsAreRejectedOrRoundTrip) {
  const uint64_t seed = kSeeds[0];
  CmSketch cm(CmParams::FromErrorBound(0.5, 0.2, seed));
  EhCell eh(3);
  EcmSketch ecm(EcmParams::FromErrorBound(0.9, 0.5, 0.5, seed));
  HeavyHitterSketch hh(CmParams::FromErrorBound(0.5, 0.2, seed), 4);
  QuantileSketch qs = QuantileSketch::FromErrorBound(0.5, 0.5, 6, seed);
  for (uint64_t t = 0; t < 40; ++t) {
    cm.Update(HashCombine(seed, t % 9), t + 1);
    eh.Add(t, 1 + t % 3);
    ecm.Update(HashCombine(seed, t % 5), t);
    hh.Update("10.0.0." + std::to_string(t % 6), 1 + t % 4);
    qs.Update(t);
  }
  Rng rng(20080609);
  ExpectMutantsRejectedOrRoundTrip(cm, "count-min", &rng);
  ExpectMutantsRejectedOrRoundTrip(eh, "exponential histogram", &rng);
  ExpectMutantsRejectedOrRoundTrip(ecm, "ECM", &rng);
  ExpectMutantsRejectedOrRoundTrip(hh, "heavy hitter", &rng);
  ExpectMutantsRejectedOrRoundTrip(qs, "quantile", &rng);
}

// ---------------------------------------------------------------------------
// SketchOp / SketchMergeOp against the exact AggregateOp oracle
// ---------------------------------------------------------------------------

class SketchExecTest : public ::testing::Test {
 protected:
  SketchExecTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {}

  QueryNodePtr Node(const std::string& name, const std::string& gsql) {
    Status st = graph_.AddQuery(name, gsql);
    SP_CHECK(st.ok()) << st.ToString();
    return *graph_.GetQuery(name);
  }

  /// A deterministic packet mix: heavy srcIP skew so conservative updates
  /// matter, spread over several 10-tick epochs.
  TupleBatch SkewedPackets(int n) {
    TupleBatch batch;
    for (int i = 0; i < n; ++i) {
      uint32_t src = (i % 7 == 0) ? 0xAA : 0xB0 + static_cast<uint32_t>(i % 9);
      batch.push_back(MakePacket(1 + i / 20, src, 0xC, 10, 80, 100 + i % 50));
    }
    return batch;
  }

  /// Runs \p input through a host-side SketchOp chained into a
  /// SketchMergeOp; returns the merge's output rows.
  TupleBatch RunSketchChain(const QueryNodePtr& node, const SketchSpec& spec,
                            const TupleBatch& input, bool batched) {
    SketchOp host(node, spec);
    SketchMergeOp merge(node, spec);
    TupleBatch out;
    host.AddSink([&](const Tuple& t) { merge.Push(0, t); });
    merge.AddSink([&](const Tuple& t) { out.push_back(t); });
    if (batched) {
      host.PushBatch(0, TupleSpan(input.data(), input.size()));
    } else {
      for (const Tuple& t : input) host.Push(0, t);
    }
    host.Finish(0);
    merge.Finish(0);
    return out;
  }

  /// Exact answers via the stock AggregateOp on the same node.
  TupleBatch RunExact(const QueryNodePtr& node, const TupleBatch& input) {
    auto op = MakeOperator(node, &UdafRegistry::Default());
    SP_CHECK(op.ok()) << op.status().ToString();
    TupleBatch out;
    (*op)->AddSink([&out](const Tuple& t) { out.push_back(t); });
    for (const Tuple& t : input) (*op)->Push(0, t);
    (*op)->Finish(0);
    return out;
  }

  /// Asserts the estimated rows cover exactly the exact rows' groups and
  /// every aggregate cell sits in [exact, exact + eps * epoch_mass].
  void ExpectWithinBound(const TupleBatch& exact, const TupleBatch& est,
                         double eps,
                         const std::map<uint64_t, uint64_t>& epoch_mass,
                         size_t num_group_cols) {
    ASSERT_EQ(exact.size(), est.size())
        << "group sets differ\nexact:\n"
        << testing::BatchToString(testing::Sorted(exact)) << "estimated:\n"
        << testing::BatchToString(testing::Sorted(est));
    auto key = [&](const Tuple& t) {
      std::string k;
      for (size_t i = 0; i < num_group_cols; ++i) k += t.at(i).ToString() + "|";
      return k;
    };
    std::map<std::string, Tuple> exact_by_key;
    for (const Tuple& t : exact) exact_by_key.emplace(key(t), t);
    for (const Tuple& t : est) {
      auto it = exact_by_key.find(key(t));
      ASSERT_NE(it, exact_by_key.end()) << "spurious group " << t.ToString();
      uint64_t epoch = t.at(0).AsUint64();
      double bound = eps * static_cast<double>(epoch_mass.at(epoch));
      for (size_t i = num_group_cols; i < t.size(); ++i) {
        uint64_t e = it->second.at(i).AsUint64();
        uint64_t a = t.at(i).AsUint64();
        EXPECT_GE(a, e) << "under-count in " << t.ToString();
        EXPECT_LE(static_cast<double>(a - e), bound)
            << "estimate " << a << " beyond eps*mass of exact " << e << " in "
            << t.ToString();
      }
    }
  }

  std::map<uint64_t, uint64_t> EpochMasses(const TupleBatch& input,
                                           uint64_t width) {
    std::map<uint64_t, uint64_t> mass;
    for (const Tuple& t : input) ++mass[t.at(0).AsUint64() / width];
    return mass;
  }

  Catalog catalog_;
  QueryGraph graph_;
};

TEST_F(SketchExecTest, CountEstimatesWithinBoundOnBothPaths) {
  QueryNodePtr node = Node(
      "c", "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
           "GROUP BY time/10 as tb, srcIP APPROX 0.05");
  SketchSpec spec;
  spec.eps = 0.05;
  TupleBatch input = SkewedPackets(4000);
  TupleBatch exact = RunExact(node, input);
  std::map<uint64_t, uint64_t> mass = EpochMasses(input, 10);

  TupleBatch per_tuple = RunSketchChain(node, spec, input, /*batched=*/false);
  ExpectWithinBound(exact, per_tuple, spec.eps, mass, 2);

  // The batched path must not just be within bound — it must emit the very
  // same rows in the very same order (the runtime's determinism contract).
  TupleBatch batched = RunSketchChain(node, spec, input, /*batched=*/true);
  ASSERT_EQ(per_tuple.size(), batched.size());
  for (size_t i = 0; i < per_tuple.size(); ++i) {
    EXPECT_EQ(per_tuple[i], batched[i]) << "row " << i;
  }
}

TEST_F(SketchExecTest, SumEstimatesWithinBoundOfSummedMass) {
  QueryNodePtr node = Node(
      "s", "SELECT tb, srcIP, SUM(len) as bytes FROM TCP "
           "GROUP BY time/10 as tb, srcIP APPROX 0.05");
  SketchSpec spec;
  spec.eps = 0.05;
  TupleBatch input = SkewedPackets(3000);
  TupleBatch exact = RunExact(node, input);
  // SUM mass per epoch is the summed lengths, not the tuple count.
  std::map<uint64_t, uint64_t> mass;
  for (const Tuple& t : input) {
    mass[t.at(0).AsUint64() / 10] += t.at(5).AsUint64();
  }
  TupleBatch out = RunSketchChain(node, spec, input, /*batched=*/false);
  ExpectWithinBound(exact, out, spec.eps, mass, 2);
}

TEST_F(SketchExecTest, CheckpointRestoreRoundTripsMidEpoch) {
  QueryNodePtr node = Node(
      "c", "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
           "GROUP BY time/10 as tb, srcIP APPROX 0.05");
  SketchSpec spec;
  spec.eps = 0.05;
  TupleBatch input = SkewedPackets(2000);
  size_t cut = input.size() / 2;  // mid-epoch: open sketch state is live

  SketchOp original(node, spec);
  TupleBatch original_out;
  original.AddSink([&](const Tuple& t) { original_out.push_back(t); });
  for (size_t i = 0; i < cut; ++i) original.Push(0, input[i]);

  std::string state;
  original.CheckpointState(&state);
  SketchOp restored(node, spec);
  TupleBatch restored_out;
  restored.AddSink([&](const Tuple& t) { restored_out.push_back(t); });
  ASSERT_OK(restored.RestoreState(state));
  EXPECT_EQ(restored.open_state().tuples, original.open_state().tuples);

  // Only flushes after the checkpoint are comparable: epochs the original
  // closed before the cut were already delivered downstream and are not part
  // of the checkpointed open state.
  size_t mark = original_out.size();
  for (size_t i = cut; i < input.size(); ++i) {
    original.Push(0, input[i]);
    restored.Push(0, input[i]);
  }
  original.Finish(0);
  restored.Finish(0);
  ASSERT_EQ(original_out.size() - mark, restored_out.size());
  for (size_t i = 0; i < restored_out.size(); ++i) {
    EXPECT_EQ(original_out[mark + i], restored_out[i]) << "summary " << i;
  }
}

TEST_F(SketchExecTest, MergeOpCheckpointRestoreRoundTrips) {
  QueryNodePtr node = Node(
      "c", "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
           "GROUP BY time/10 as tb, srcIP APPROX 0.05");
  SketchSpec spec;
  spec.eps = 0.05;
  TupleBatch input = SkewedPackets(2000);

  // Drive a host op and capture its summaries, then feed them to two merge
  // ops — one checkpointed and restored mid-stream.
  TupleBatch summaries;
  SketchOp host(node, spec);
  host.AddSink([&](const Tuple& t) { summaries.push_back(t); });
  for (const Tuple& t : input) host.Push(0, t);
  host.Finish(0);
  ASSERT_GT(summaries.size(), 1u);

  SketchMergeOp a(node, spec), b(node, spec);
  TupleBatch a_out, b_out;
  a.AddSink([&](const Tuple& t) { a_out.push_back(t); });
  b.AddSink([&](const Tuple& t) { b_out.push_back(t); });
  a.Push(0, summaries[0]);
  std::string state;
  a.CheckpointState(&state);
  ASSERT_OK(b.RestoreState(state));
  for (size_t i = 1; i < summaries.size(); ++i) {
    a.Push(0, summaries[i]);
    b.Push(0, summaries[i]);
  }
  a.Finish(0);
  b.Finish(0);
  ASSERT_EQ(a_out.size(), b_out.size());
  for (size_t i = 0; i < a_out.size(); ++i) EXPECT_EQ(a_out[i], b_out[i]);
}

TEST_F(SketchExecTest, MergeSummaryRejectsCandidateKeyThatDoesNotDecode) {
  SketchSpec spec;
  spec.eps = 0.05;
  // A hand-built summary for one COUNT slot over (tb, srcIP): one empty grid
  // and one candidate key of a single byte — an IP tag with no payload,
  // which is not the one encoded srcIP value a flush decodes.
  std::string blob;
  PutU32(&blob, 0x534b5331);  // "SKS1"
  PutU32(&blob, 1);
  CmSketch(spec.Grid()).Serialize(&blob);
  PutU64(&blob, 1);
  PutBytes(&blob, std::string(1, static_cast<char>(DataType::kIp)));

  std::vector<CmSketch> sketches{CmSketch(spec.Grid())};
  std::map<std::string, uint64_t> candidates;
  Status st = MergeSummary(blob, /*key_values=*/1, &sketches, &candidates);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("candidate key 0 (0x06)"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(candidates.empty());
}

TEST_F(SketchExecTest, MutatedSummariesAreRejectedOrFlushCleanly) {
  QueryNodePtr node = Node(
      "c", "SELECT tb, srcIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP "
           "GROUP BY time/10 as tb, srcIP APPROX 0.05");
  SketchSpec spec;
  spec.eps = 0.05;
  TupleBatch summaries;
  SketchOp host(node, spec);
  host.AddSink([&](const Tuple& t) { summaries.push_back(t); });
  for (const Tuple& t : SkewedPackets(600)) host.Push(0, t);
  host.Finish(0);
  ASSERT_FALSE(summaries.empty());

  Rng rng(20080609);
  int rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    const Tuple& valid = summaries[i % summaries.size()];
    std::string mutant =
        testing::MutateEncoding(valid.at(1).string_value(), &rng);
    std::vector<CmSketch> sketches(2, CmSketch(spec.Grid()));
    std::map<std::string, uint64_t> candidates;
    if (!MergeSummary(mutant, /*key_values=*/1, &sketches, &candidates).ok()) {
      ++rejected;
      // Rejected before anything merged.
      EXPECT_TRUE(candidates.empty()) << "mutant " << i;
      for (const CmSketch& s : sketches) EXPECT_EQ(s.total(), 0u);
      continue;
    }
    // Accepted: the merge op must flush the epoch without aborting.
    SketchMergeOp merge(node, spec);
    size_t rows = 0;
    merge.AddSink([&rows](const Tuple&) { ++rows; });
    merge.Push(0, Tuple(std::vector<Value>{valid.at(0),
                                           Value::String(mutant)}));
    merge.Finish(0);
    EXPECT_EQ(rows, candidates.size()) << "mutant " << i;
  }
  EXPECT_GT(rejected, 0) << "the mutator never broke a summary";
}

// ---------------------------------------------------------------------------
// The third outcome end to end: optimizer choice, bounds, ledger
// ---------------------------------------------------------------------------

class SketchLegTest : public ::testing::Test {
 protected:
  SketchLegTest() : catalog_(MakeDefaultCatalog()), graph_(&catalog_) {}

  TupleBatch SmallTrace() { return testing::MakeSmallTrace(150, 400, 60, 64); }

  Catalog catalog_;
  QueryGraph graph_;
};

TEST_F(SketchLegTest, OptimizerPicksSketchLegAndAnswersWithinLedgerBound) {
  // No partitioning is compatible with this aggregate (empty actual set), so
  // the optimizer's only alternatives are raw-tuple shipping or the sketch
  // leg; the APPROX annotation plus the cost model select the sketch.
  ASSERT_OK(graph_.AddQuery(
      "flows", "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
               "GROUP BY time/60 as tb, srcIP APPROX 0.05"));
  TupleBatch trace = SmallTrace();
  ASSERT_OK_AND_ASSIGN(auto central, RunCentralized(graph_, "TCP", trace));

  ClusterConfig cluster;
  cluster.num_hosts = 4;
  ASSERT_OK_AND_ASSIGN(
      DistPlan plan, OptimizeForPartitioning(graph_, cluster, PartitionSet(),
                                             OptimizerOptions()));
  bool has_sketch = false;
  for (int id : plan.TopoOrder()) {
    if (plan.op(id).sketch_role != SketchRole::kNone) has_sketch = true;
  }
  ASSERT_TRUE(has_sketch) << "optimizer did not pick the sketch leg:\n"
                          << plan.ToString();

  ClusterRuntime runtime(&graph_, &plan, cluster);
  ASSERT_OK(runtime.Build(PartitionSet()));
  for (const Tuple& t : trace) runtime.PushSource("TCP", t);
  runtime.FinishSources();

  SketchSection section = runtime.MakeSketchSection();
  ASSERT_TRUE(section.active);
  EXPECT_FALSE(section.exact);
  EXPECT_FALSE(section.inexact_reasons.empty());
  EXPECT_EQ(section.eps, 0.05);
  ASSERT_GT(section.abs_error_bound, 0.0);

  const TupleBatch& exact = central.at("flows");
  auto it = runtime.result().outputs.find("flows");
  ASSERT_NE(it, runtime.result().outputs.end());
  const TupleBatch& est = it->second;
  ASSERT_EQ(exact.size(), est.size()) << "group sets differ";

  auto key = [](const Tuple& t) {
    return t.at(0).ToString() + "|" + t.at(1).ToString();
  };
  std::map<std::string, uint64_t> exact_by_key;
  for (const Tuple& t : exact) exact_by_key[key(t)] = t.at(2).AsUint64();
  for (const Tuple& t : est) {
    auto found = exact_by_key.find(key(t));
    ASSERT_NE(found, exact_by_key.end()) << "spurious group " << t.ToString();
    uint64_t e = found->second;
    uint64_t a = t.at(2).AsUint64();
    EXPECT_GE(a, e) << "under-count in " << t.ToString();
    // The ledger's bound is the one the operator promises: eps times the
    // heaviest epoch's mass, an upper bound for every epoch's estimates.
    EXPECT_LE(static_cast<double>(a - e), section.abs_error_bound)
        << "estimate beyond the in-ledger bound in " << t.ToString();
  }
}

TEST_F(SketchLegTest, IneligibleAggregateFallsBackToExactPlan) {
  // max() cannot ride a count-min sketch; even with APPROX the optimizer
  // must keep the exact path.
  ASSERT_OK(graph_.AddQuery(
      "peaks", "SELECT tb, max(len) as m FROM TCP "
               "GROUP BY time/60 as tb APPROX 0.05"));
  ClusterConfig cluster;
  cluster.num_hosts = 3;
  ASSERT_OK_AND_ASSIGN(
      DistPlan plan, OptimizeForPartitioning(graph_, cluster, PartitionSet(),
                                             OptimizerOptions()));
  for (int id : plan.TopoOrder()) {
    EXPECT_EQ(plan.op(id).sketch_role, SketchRole::kNone)
        << "sketch leg on an unsupported aggregate:\n"
        << plan.ToString();
  }
}

TEST_F(SketchLegTest, LedgerByteIdenticalWhenSketchLegNotChosen) {
  // An exact (un-annotated, compatible) workload must produce the same
  // ledger bytes whether the sketch rule is enabled or not: the section is
  // only serialized when a sketch leg actually exists.
  ASSERT_OK(graph_.AddQuery(
      "flows", "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP "
               "GROUP BY time/60 as tb, srcIP"));
  TupleBatch trace = SmallTrace();
  auto ps = PartitionSet::Parse("srcIP");
  ASSERT_OK(ps.status());
  ClusterConfig cluster;
  cluster.num_hosts = 3;

  auto run = [&](bool enable_sketch) {
    OptimizerOptions options;
    options.enable_sketch = enable_sketch;
    auto plan = OptimizeForPartitioning(graph_, cluster, *ps, options);
    SP_CHECK(plan.ok()) << plan.status().ToString();
    ClusterRuntime runtime(&graph_, &*plan, cluster);
    SP_CHECK(runtime.Build(*ps).ok());
    for (const Tuple& t : trace) runtime.PushSource("TCP", t);
    runtime.FinishSources();
    EXPECT_FALSE(runtime.MakeSketchSection().active);
    return runtime.MakeLedger(CpuCostParams(), 150).ToJsonl();
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace streampart
