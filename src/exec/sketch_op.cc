#include "exec/sketch_op.h"

#include <algorithm>

#include "common/hash.h"
#include "types/serde.h"

namespace streampart {

namespace {

/// \brief Summary blob framing version/magic ("SKS1").
constexpr uint32_t kSummaryMagic = 0x534b5331;

/// \brief Bound tuple index of a bare column-reference expression, or -1
/// when the expression needs interpretation.
int ColumnFastPath(const ExprPtr& expr) {
  if (expr != nullptr && expr->is_column() && expr->is_bound()) {
    return static_cast<int>(expr->bound_index());
  }
  return -1;
}

/// \brief Zero-argument aggregate (count) sentinel for arg_cols_.
constexpr int kNoArg = -2;

/// \brief An estimate as a Value of the aggregate slot's declared type.
Value EstimateValue(uint64_t est, DataType type) {
  switch (type) {
    case DataType::kInt:
      return Value::Int(static_cast<int64_t>(est));
    case DataType::kDouble:
      return Value::Double(static_cast<double>(est));
    default:
      return Value::Uint(est);
  }
}

/// \brief Serializes one epoch's sketches + candidate keys into \p out.
/// Layout: u32 magic, u32 aggregate count, the serialized count-min grids,
/// u64 candidate count, then each encoded candidate key (length-prefixed).
/// Candidates iterate a sorted map, so the bytes are a pure function of the
/// logical state.
void SerializeSummary(const std::vector<sketch::CmSketch>& sketches,
                      const std::map<std::string, uint64_t>& candidates,
                      std::string* out) {
  sketch::PutU32(out, kSummaryMagic);
  sketch::PutU32(out, static_cast<uint32_t>(sketches.size()));
  for (const sketch::CmSketch& s : sketches) s.Serialize(out);
  sketch::PutU64(out, candidates.size());
  for (const auto& [key, hash] : candidates) sketch::PutBytes(out, key);
}

/// \brief The checkpoint layout SketchOp and SketchMergeOp share: u8
/// has-epoch [value], the open epoch's serialized grids, u64 candidate
/// count then each encoded key. Candidates iterate sorted, so the bytes are
/// a pure function of the logical state.
void CheckpointSketchState(const std::optional<Value>& epoch,
                           const std::vector<sketch::CmSketch>& sketches,
                           const std::map<std::string, uint64_t>& candidates,
                           std::string* out) {
  out->push_back(epoch.has_value() ? 1 : 0);
  if (epoch.has_value()) EncodeValue(*epoch, out);
  for (const sketch::CmSketch& s : sketches) s.Serialize(out);
  sketch::PutU64(out, candidates.size());
  for (const auto& [key, hash] : candidates) sketch::PutBytes(out, key);
}

/// \brief True when \p key is exactly \p values encoded Values: the
/// non-temporal group values a flush decodes back out of a candidate key.
bool CandidateKeyDecodes(std::string_view key, size_t values) {
  size_t offset = 0;
  Value v;
  for (size_t i = 0; i < values; ++i) {
    if (!DecodeValue(key, &offset, &v).ok()) return false;
  }
  return offset == key.size();
}

/// \brief \p bytes as lowercase hex, for naming a rejected key.
std::string HexBytes(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

/// \brief Inverse of CheckpointSketchState into a freshly reset op. Rejects
/// what a later flush could not use: a grid other than \p grid, a candidate
/// key that does not decode to \p key_values values, and candidates with no
/// open epoch to flush into.
Status RestoreSketchState(std::string_view data, const std::string& label,
                          const sketch::CmParams& grid, size_t key_values,
                          std::optional<Value>* epoch,
                          std::vector<sketch::CmSketch>* sketches,
                          std::map<std::string, uint64_t>* candidates) {
  candidates->clear();
  epoch->reset();

  size_t offset = 0;
  if (data.empty()) {
    return Status::InvalidArgument(label, ": empty checkpoint blob");
  }
  if (data[offset++] != 0) {
    Value restored;
    SP_RETURN_NOT_OK(DecodeValue(data, &offset, &restored));
    *epoch = std::move(restored);
  }
  for (sketch::CmSketch& s : *sketches) {
    auto restored = sketch::CmSketch::Deserialize(data, &offset);
    SP_RETURN_NOT_OK(restored.status());
    if (!(restored->params() == grid)) {
      return Status::InvalidArgument(label,
                                     ": checkpoint grid differs from spec");
    }
    s = std::move(*restored);
  }
  uint64_t num_keys = 0;
  SP_RETURN_NOT_OK(sketch::GetU64(data, &offset, &num_keys));
  if (num_keys > data.size()) {
    return Status::InvalidArgument(label, ": implausible candidate count ",
                                   num_keys);
  }
  if (num_keys > 0 && !epoch->has_value()) {
    return Status::InvalidArgument(label, ": candidates without an epoch");
  }
  for (uint64_t i = 0; i < num_keys; ++i) {
    std::string key;
    SP_RETURN_NOT_OK(sketch::GetBytes(data, &offset, &key));
    if (!CandidateKeyDecodes(key, key_values)) {
      return Status::InvalidArgument(label, ": candidate key ", i,
                                     " is not ", key_values,
                                     " encoded group values");
    }
    uint64_t hash = HashBytes(key);
    candidates->emplace(std::move(key), hash);
  }
  if (offset != data.size()) {
    return Status::InvalidArgument(label, ": trailing checkpoint bytes");
  }
  return Status::OK();
}

}  // namespace

Status MergeSummary(std::string_view blob, size_t key_values,
                    std::vector<sketch::CmSketch>* sketches,
                    std::map<std::string, uint64_t>* candidates) {
  // Parse and check everything first: a rejected blob leaves the merged
  // state untouched.
  size_t offset = 0;
  uint32_t magic = 0;
  SP_RETURN_NOT_OK(sketch::GetU32(blob, &offset, &magic));
  if (magic != kSummaryMagic) {
    return Status::InvalidArgument("bad sketch summary magic ", magic);
  }
  uint32_t count = 0;
  SP_RETURN_NOT_OK(sketch::GetU32(blob, &offset, &count));
  if (count != sketches->size()) {
    return Status::InvalidArgument("sketch summary has ", count,
                                   " grids, expected ", sketches->size());
  }
  std::vector<sketch::CmSketch> theirs;
  theirs.reserve(count);
  for (const sketch::CmSketch& mine : *sketches) {
    auto grid = sketch::CmSketch::Deserialize(blob, &offset);
    SP_RETURN_NOT_OK(grid.status());
    if (!(grid->params() == mine.params())) {
      return Status::InvalidArgument(
          "sketch summary grid differs from the merged grid");
    }
    theirs.push_back(std::move(*grid));
  }
  uint64_t num_keys = 0;
  SP_RETURN_NOT_OK(sketch::GetU64(blob, &offset, &num_keys));
  if (num_keys > blob.size()) {
    return Status::InvalidArgument("implausible candidate count ", num_keys);
  }
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < num_keys; ++i) {
    std::string key;
    SP_RETURN_NOT_OK(sketch::GetBytes(blob, &offset, &key));
    // A flush decodes every candidate back into the group values.
    if (!CandidateKeyDecodes(key, key_values)) {
      return Status::InvalidArgument(
          "sketch summary candidate key ", i, " (0x", HexBytes(key),
          ") is not ", key_values, " encoded group values");
    }
    keys.push_back(std::move(key));
  }
  if (offset != blob.size()) {
    return Status::InvalidArgument("trailing bytes in sketch summary");
  }
  for (size_t i = 0; i < theirs.size(); ++i) {
    SP_RETURN_NOT_OK((*sketches)[i].Merge(theirs[i]));
  }
  for (std::string& key : keys) {
    uint64_t hash = HashBytes(key);
    candidates->emplace(std::move(key), hash);
  }
  return Status::OK();
}

SchemaPtr SketchSummarySchema(const QueryNode& node) {
  SP_CHECK(node.temporal_group_idx.has_value())
      << "sketch leg over non-windowed aggregate " << node.name;
  const NamedExpr& t = node.group_by[*node.temporal_group_idx];
  return Schema::Make({{t.name, t.type, TemporalOrder::kIncreasing},
                       {"summary", DataType::kString, TemporalOrder::kNone}});
}

// ---------------------------------------------------------------------------
// SketchOp (host leg)
// ---------------------------------------------------------------------------

SketchOp::SketchOp(QueryNodePtr node, SketchSpec spec)
    : Operator(/*num_ports=*/1), node_(std::move(node)), spec_(spec) {
  SP_CHECK(node_->kind == QueryKind::kAggregate)
      << "SketchOp over non-aggregate node " << node_->name;
  SP_CHECK(node_->temporal_group_idx.has_value())
      << "SketchOp requires a tumbling-window aggregate " << node_->name;
  temporal_idx_ = *node_->temporal_group_idx;
  group_cols_.reserve(node_->group_by.size());
  for (const NamedExpr& g : node_->group_by) {
    group_cols_.push_back(ColumnFastPath(g.expr));
  }
  const sketch::CmParams grid = spec_.Grid();
  arg_cols_.reserve(node_->aggregates.size());
  for (const AggregateSpec& a : node_->aggregates) {
    arg_cols_.push_back(a.args.empty() ? kNoArg : ColumnFastPath(a.args[0]));
    sketches_.emplace_back(grid);
  }
}

bool SketchOp::AdvanceEpoch(const Value& epoch) {
  if (current_epoch_.has_value() && !(epoch == *current_epoch_)) {
    if (epoch < *current_epoch_) {
      ++stats_.late_tuples;
      return false;
    }
    FlushEpoch();
  }
  current_epoch_ = epoch;
  return true;
}

void SketchOp::DoPush(size_t, const Tuple& tuple) {
  if (node_->where) {
    ++stats_.predicate_evals;
    if (!node_->where->Eval(tuple).Truthy()) return;
  }
  const size_t num_groups = node_->group_by.size();
  key_vals_.resize(num_groups);
  for (size_t i = 0; i < num_groups; ++i) {
    key_vals_[i] = group_cols_[i] >= 0
                       ? tuple.at(static_cast<size_t>(group_cols_[i]))
                       : node_->group_by[i].expr->Eval(tuple);
  }
  if (!AdvanceEpoch(key_vals_[temporal_idx_])) return;

  key_buf_.clear();
  for (size_t i = 0; i < num_groups; ++i) {
    if (i != temporal_idx_) EncodeValue(key_vals_[i], &key_buf_);
  }
  auto [it, inserted] = candidates_.try_emplace(key_buf_, 0);
  if (inserted) {
    ++stats_.group_inserts;
    it->second = HashBytes(it->first);
  } else {
    ++stats_.group_probes;
  }
  const uint64_t hash = it->second;

  // Ambient shed weight: each admitted tuple stands for w observations.
  const uint64_t w = shed_weight_ != nullptr ? *shed_weight_ : 1;
  for (size_t i = 0; i < arg_cols_.size(); ++i) {
    uint64_t delta = 1;
    if (arg_cols_[i] == kNoArg) {
      // COUNT(*): unit mass.
    } else if (arg_cols_[i] >= 0) {
      delta = tuple.at(static_cast<size_t>(arg_cols_[i])).AsUint64();
    } else {
      delta = node_->aggregates[i].args[0]->Eval(tuple).AsUint64();
    }
    if (delta == 0) continue;  // zero mass leaves the sketch untouched
    sketches_[i].UpdateConservative(hash, delta * w);
    ++acc_.updates;
  }
}

void SketchOp::FlushEpoch() {
  if (candidates_.empty()) return;
  std::string blob;
  SerializeSummary(sketches_, candidates_, &blob);
  const uint64_t blob_bytes = blob.size();

  Tuple out;
  out.values().reserve(2);
  out.Append(*current_epoch_);
  out.Append(Value::String(std::move(blob)));

  ++acc_.summaries;
  acc_.summary_bytes += blob_bytes;
  ++acc_.epochs;
  if (t_epoch_flushes_ != nullptr) {
    t_updates_->Add(acc_.updates - t_updates_->value());
    t_summaries_->Inc();
    t_summary_bytes_->Add(blob_bytes);
    t_epoch_flushes_->Inc();
  }
  if (trace_events_enabled()) {
    RecordTraceEvent("sketch_flush", current_epoch_->ToString(),
                     candidates_.size(), 1);
  }
  Emit(out);

  const sketch::CmParams grid = spec_.Grid();
  for (sketch::CmSketch& s : sketches_) s = sketch::CmSketch(grid);
  candidates_.clear();
}

void SketchOp::DoFinish() { FlushEpoch(); }

void SketchOp::DoBindTelemetry(StatsScope* scope) {
  t_updates_ = scope->counter(stats::kSketchUpdates);
  t_summaries_ = scope->counter(stats::kSketchSummaries);
  t_summary_bytes_ = scope->counter(stats::kSketchSummaryBytes);
  t_epoch_flushes_ = scope->counter(stats::kSketchEpochFlushes);
}

void SketchOp::CheckpointState(std::string* out) const {
  CheckpointSketchState(current_epoch_, sketches_, candidates_, out);
}

Status SketchOp::RestoreState(std::string_view data) {
  return RestoreSketchState(data, label(), spec_.Grid(),
                            node_->group_by.size() - 1, &current_epoch_,
                            &sketches_, &candidates_);
}

// ---------------------------------------------------------------------------
// SketchMergeOp (aggregator leg)
// ---------------------------------------------------------------------------

SketchMergeOp::SketchMergeOp(QueryNodePtr node, SketchSpec spec)
    : Operator(/*num_ports=*/1), node_(std::move(node)), spec_(spec) {
  SP_CHECK(node_->kind == QueryKind::kAggregate)
      << "SketchMergeOp over non-aggregate node " << node_->name;
  SP_CHECK(node_->temporal_group_idx.has_value())
      << "SketchMergeOp requires a tumbling-window aggregate " << node_->name;
  temporal_idx_ = *node_->temporal_group_idx;
  out_cols_.reserve(node_->outputs.size());
  for (const NamedExpr& o : node_->outputs) {
    out_cols_.push_back(ColumnFastPath(o.expr));
  }
  const sketch::CmParams grid = spec_.Grid();
  for (size_t i = 0; i < node_->aggregates.size(); ++i) {
    sketches_.emplace_back(grid);
  }
}

void SketchMergeOp::DoPush(size_t, const Tuple& tuple) {
  const Value& epoch = tuple.at(0);
  if (current_epoch_.has_value() && !(epoch == *current_epoch_)) {
    if (epoch < *current_epoch_) {
      ++stats_.late_tuples;
      return;
    }
    FlushEpoch();
  }
  current_epoch_ = epoch;

  const std::string& blob = tuple.at(1).string_value();
  Status merged = MergeSummary(blob, node_->group_by.size() - 1, &sketches_,
                               &candidates_);
  SP_CHECK(merged.ok()) << label() << ": " << merged.message();
  ++acc_.merged_summaries;
  acc_.merged_bytes += blob.size();
  if (t_merged_summaries_ != nullptr) {
    t_merged_summaries_->Inc();
    t_merged_bytes_->Add(blob.size());
  }
}

void SketchMergeOp::FlushInternal() {
  const Tuple& internal = internal_scratch_;
  if (node_->having) {
    ++stats_.predicate_evals;
    if (!node_->having->Eval(internal).Truthy()) return;
  }
  Tuple out;
  out.values().reserve(node_->outputs.size());
  for (size_t i = 0; i < node_->outputs.size(); ++i) {
    if (out_cols_[i] >= 0) {
      out.Append(internal.at(static_cast<size_t>(out_cols_[i])));
    } else {
      out.Append(node_->outputs[i].expr->Eval(internal));
    }
  }
  flush_batch_.push_back(std::move(out));
}

void SketchMergeOp::FlushEpoch() {
  if (candidates_.empty()) return;
  const size_t num_groups = node_->group_by.size();
  const size_t num_aggs = node_->aggregates.size();
  flush_batch_.clear();
  for (const auto& [key, hash] : candidates_) {
    std::vector<Value>& vals = internal_scratch_.values();
    vals.resize(num_groups + num_aggs);
    size_t offset = 0;
    for (size_t i = 0; i < num_groups; ++i) {
      if (i == temporal_idx_) {
        vals[i] = *current_epoch_;
      } else {
        Status decoded = DecodeValue(key, &offset, &vals[i]);
        SP_CHECK(decoded.ok()) << label() << ": " << decoded.message();
      }
    }
    for (size_t j = 0; j < num_aggs; ++j) {
      vals[num_groups + j] = EstimateValue(sketches_[j].Estimate(hash),
                                           node_->aggregates[j].out_type);
      ++acc_.estimates;
    }
    FlushInternal();
  }
  ++acc_.epochs;
  for (const sketch::CmSketch& s : sketches_) {
    acc_.max_epoch_mass = std::max(acc_.max_epoch_mass, s.total());
  }
  if (t_epoch_flushes_ != nullptr) {
    t_estimates_->Add(acc_.estimates - t_estimates_->value());
    t_epoch_flushes_->Inc();
  }
  if (trace_events_enabled()) {
    RecordTraceEvent("sketch_answer", current_epoch_->ToString(),
                     candidates_.size(), flush_batch_.size());
  }
  EmitBatch(flush_batch_);

  const sketch::CmParams grid = spec_.Grid();
  for (sketch::CmSketch& s : sketches_) s = sketch::CmSketch(grid);
  candidates_.clear();
}

void SketchMergeOp::DoFinish() { FlushEpoch(); }

void SketchMergeOp::DoBindTelemetry(StatsScope* scope) {
  t_merged_summaries_ = scope->counter(stats::kSketchMergedSummaries);
  t_merged_bytes_ = scope->counter(stats::kSketchMergedBytes);
  t_estimates_ = scope->counter(stats::kSketchEstimates);
  t_epoch_flushes_ = scope->counter(stats::kSketchEpochFlushes);
}

void SketchMergeOp::CheckpointState(std::string* out) const {
  CheckpointSketchState(current_epoch_, sketches_, candidates_, out);
}

Status SketchMergeOp::RestoreState(std::string_view data) {
  return RestoreSketchState(data, label(), spec_.Grid(),
                            node_->group_by.size() - 1, &current_epoch_,
                            &sketches_, &candidates_);
}

}  // namespace streampart
