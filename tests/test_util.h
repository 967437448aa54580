#pragma once

/// \file test_util.h
/// \brief Shared helpers for the streampart test suites.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "dist/experiment.h"
#include "dist/fault.h"
#include "exec/column_batch.h"
#include "exec/operator.h"
#include "trace/trace_gen.h"
#include "types/serde.h"
#include "types/tuple.h"

namespace streampart {
namespace testing {

// Note: the status is copied, not bound by reference — `expr` may be
// `SomeResultReturningCall().status()`, a reference into a temporary that
// dies at the end of the full expression.
#define ASSERT_OK(expr)                                               \
  do {                                                                \
    const ::streampart::Status _st = (expr);                          \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                          \
  } while (false)

#define EXPECT_OK(expr)                                               \
  do {                                                                \
    const ::streampart::Status _st = (expr);                          \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                          \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                              \
  ASSERT_OK_AND_ASSIGN_IMPL(SP_CONCAT(_r_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(result_name, lhs, rexpr)            \
  auto result_name = (rexpr);                                         \
  ASSERT_TRUE(result_name.ok()) << result_name.status().ToString();   \
  lhs = std::move(result_name).ValueOrDie()

/// \brief Builds one packet tuple in the canonical packet-schema layout.
inline Tuple MakePacket(uint64_t time, uint32_t src_ip, uint32_t dest_ip,
                        uint64_t src_port, uint64_t dest_port, uint64_t len,
                        uint64_t flags = 0x10, uint64_t protocol = 6,
                        uint64_t timestamp = 0) {
  Tuple t;
  t.Append(Value::Uint(time));
  t.Append(Value::Ip(src_ip));
  t.Append(Value::Ip(dest_ip));
  t.Append(Value::Uint(src_port));
  t.Append(Value::Uint(dest_port));
  t.Append(Value::Uint(len));
  t.Append(Value::Uint(flags));
  t.Append(Value::Uint(protocol));
  t.Append(Value::Uint(timestamp == 0 ? time * 1000000 : timestamp));
  return t;
}

/// \brief Sorts a batch for order-insensitive comparison.
inline TupleBatch Sorted(TupleBatch batch) {
  std::sort(batch.begin(), batch.end());
  return batch;
}

/// \brief Renders a batch for failure messages.
inline std::string BatchToString(const TupleBatch& batch, size_t limit = 20) {
  std::string out;
  for (size_t i = 0; i < batch.size() && i < limit; ++i) {
    out += batch[i].ToString() + "\n";
  }
  if (batch.size() > limit) out += "... (" + std::to_string(batch.size()) + " total)\n";
  return out;
}

/// \brief Asserts two batches are equal as multisets.
inline void ExpectSameMultiset(const TupleBatch& expected,
                               const TupleBatch& actual,
                               const std::string& context = "") {
  TupleBatch e = Sorted(expected);
  TupleBatch a = Sorted(actual);
  EXPECT_EQ(e.size(), a.size()) << context << "\nexpected:\n"
                                << BatchToString(e) << "actual:\n"
                                << BatchToString(a);
  if (e.size() == a.size()) {
    for (size_t i = 0; i < e.size(); ++i) {
      if (!(e[i] == a[i])) {
        ADD_FAILURE() << context << " first difference at row " << i
                      << "\nexpected: " << e[i].ToString()
                      << "\nactual:   " << a[i].ToString();
        return;
      }
    }
  }
}

/// \brief Small deterministic packet trace shared by the differential
/// batteries. Defaults match the batch/columnar suites; the sketch suite
/// passes its longer, sparser shape.
inline TupleBatch MakeSmallTrace(uint32_t duration_sec = 4, uint32_t pps = 2000,
                                 uint32_t num_flows = 300,
                                 uint32_t num_hosts = 0) {
  TraceConfig tc;
  tc.duration_sec = duration_sec;
  tc.packets_per_sec = pps;
  tc.num_flows = num_flows;
  if (num_hosts != 0) tc.num_hosts = num_hosts;
  PacketTraceGenerator gen(tc);
  return gen.GenerateAll();
}

/// \brief Field-by-field OpStats comparison with context on failure.
inline void ExpectStatsEqual(const OpStats& expected, const OpStats& actual,
                             const std::string& ctx) {
  EXPECT_EQ(expected.tuples_in, actual.tuples_in) << ctx;
  EXPECT_EQ(expected.tuples_out, actual.tuples_out) << ctx;
  EXPECT_EQ(expected.bytes_out, actual.bytes_out) << ctx;
  EXPECT_EQ(expected.group_probes, actual.group_probes) << ctx;
  EXPECT_EQ(expected.group_inserts, actual.group_inserts) << ctx;
  EXPECT_EQ(expected.join_probes, actual.join_probes) << ctx;
  EXPECT_EQ(expected.predicate_evals, actual.predicate_evals) << ctx;
  EXPECT_EQ(expected.late_tuples, actual.late_tuples) << ctx;
}

/// \brief Exact (ordered) batch equality with context on failure.
inline void ExpectSameSequence(const TupleBatch& expected,
                               const TupleBatch& actual,
                               const std::string& ctx) {
  ASSERT_EQ(expected.size(), actual.size()) << ctx;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i] == actual[i])
        << ctx << " first difference at row " << i
        << "\nexpected: " << expected[i].ToString()
        << "\nactual:   " << actual[i].ToString();
  }
}

/// \brief Output and counters of one operator run.
struct Outcome {
  TupleBatch out;
  OpStats stats;
};

/// \brief Drives \p input through \p op on port 0: tuple-at-a-time when
/// \p batch_size is 0 (whatever \p mode says), otherwise in batch_size
/// chunks via PushBatch (kBatch) or PushColumns (kColumnar; chunks that are
/// not fixed-width representable fall back to PushBatch).
inline Outcome Drive(Operator* op, const TupleBatch& input, size_t batch_size,
                     ExecMode mode = ExecMode::kBatch) {
  Outcome outcome;
  op->AddSink([&outcome](const Tuple& t) { outcome.out.push_back(t); });
  if (batch_size == 0 || mode == ExecMode::kTuple) {
    for (const Tuple& t : input) op->Push(0, t);
  } else {
    TupleSpan all(input);
    ColumnBatch columns;
    SelectionVector sel;
    for (size_t off = 0; off < all.size(); off += batch_size) {
      TupleSpan chunk =
          all.subspan(off, std::min(batch_size, all.size() - off));
      if (mode == ExecMode::kColumnar && columns.FromTuples(chunk)) {
        IdentitySelection(chunk.size(), &sel);
        op->PushColumns(0, columns, sel);
      } else {
        op->PushBatch(0, chunk);
      }
    }
  }
  op->Finish(0);
  outcome.stats = op->stats();
  return outcome;
}

/// \brief One §6 experiment configuration (shared by the cluster batteries).
inline ExperimentConfig MakeExperimentConfig(
    const std::string& name, const std::string& ps,
    OptimizerOptions::PartialAggMode partial, bool pushdown) {
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

/// \brief One seeded mutation of a valid encoding, shared by the decoder
/// property tests: a bit flip, a truncation, or a length/count field
/// overwritten with 0xFF... or 2^64 - k. Field positions are not known to
/// the mutator, so it writes at a random offset, both as a little-endian
/// u32/u64 (the sketch codec) and as a varint (the tuple wire format).
inline std::string MutateEncoding(const std::string& valid, Rng* rng) {
  std::string out = valid;
  if (out.empty()) return out;
  const uint64_t k = rng->Uniform(1, 64);
  const uint64_t huge = rng->Chance(0.5) ? ~uint64_t{0} : uint64_t{0} - k;
  const size_t pos = rng->Uniform(0, out.size() - 1);
  const uint64_t kind = rng->Uniform(0, 4);
  switch (kind) {
    case 0:
      out[pos] = static_cast<char>(out[pos] ^ (1 << rng->Uniform(0, 7)));
      break;
    case 1:
      out.resize(pos);
      break;
    case 2:
    case 3: {
      const size_t width = kind == 2 ? 4 : 8;
      for (size_t i = 0; i < width && pos + i < out.size(); ++i) {
        out[pos + i] = static_cast<char>(huge >> (8 * i));
      }
      break;
    }
    default: {
      // Replace the varint that starts at pos (at most 10 bytes).
      size_t end = pos;
      while (end < out.size() && end - pos < 9 &&
             (static_cast<uint8_t>(out[end]) & 0x80) != 0) {
        ++end;
      }
      std::string varint;
      PutVarint(huge, &varint);
      out.replace(pos, std::min(end + 1, out.size()) - pos, varint);
      break;
    }
  }
  return out;
}

/// \brief Parses a fault-plan script, aborting on syntax errors.
inline FaultPlan ParseFaultPlan(const std::string& text) {
  auto plan = FaultPlan::Parse(text);
  SP_CHECK(plan.ok()) << plan.status().ToString();
  return *plan;
}

}  // namespace testing
}  // namespace streampart
