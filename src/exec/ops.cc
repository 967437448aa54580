#include "exec/ops.h"

#include <algorithm>
#include <cstring>

#include "types/serde.h"

namespace streampart {

namespace {

/// \brief One packed group-key slot: a type tag byte plus 8 payload bytes.
constexpr size_t kPackedSlotWidth = 9;

/// \brief True for types a packed key slot can carry (everything but
/// variable-length strings).
bool IsPackableType(DataType type) { return type != DataType::kString; }

/// \brief Writes the tag+payload encoding of \p v at \p p (which must have
/// kPackedSlotWidth bytes of room) and returns the advanced pointer. The
/// encoding is invertible, so flushes can reconstruct the exact key Values,
/// and two Values encode identically iff they compare equal.
char* PackValueTo(const Value& v, char* p) {
  SP_DCHECK(v.type() != DataType::kString);
  *p++ = static_cast<char>(v.type());
  uint64_t payload = 0;
  switch (v.type()) {
    case DataType::kUint:
    case DataType::kIp:
    case DataType::kBool:
      payload = v.uint_value();
      break;
    case DataType::kInt:
      payload = static_cast<uint64_t>(v.int_value());
      break;
    case DataType::kDouble: {
      double d = v.double_value();
      std::memcpy(&payload, &d, sizeof(double));
      break;
    }
    default:
      break;  // kNull: zero payload
  }
  std::memcpy(p, &payload, sizeof(uint64_t));
  return p + sizeof(uint64_t);
}

Value DecodePackedValue(const char* p) {
  DataType type = static_cast<DataType>(static_cast<uint8_t>(*p));
  uint64_t payload;
  std::memcpy(&payload, p + 1, sizeof(uint64_t));
  switch (type) {
    case DataType::kUint:
      return Value::Uint(payload);
    case DataType::kIp:
      return Value::Ip(static_cast<uint32_t>(payload));
    case DataType::kBool:
      return Value::Bool(payload != 0);
    case DataType::kInt:
      return Value::Int(static_cast<int64_t>(payload));
    case DataType::kDouble: {
      double d;
      std::memcpy(&d, &payload, sizeof(double));
      return Value::Double(d);
    }
    default:
      return Value::Null();
  }
}

std::vector<Value> DecodePackedKey(std::string_view key) {
  std::vector<Value> out;
  out.reserve(key.size() / kPackedSlotWidth);
  for (size_t off = 0; off + kPackedSlotWidth <= key.size();
       off += kPackedSlotWidth) {
    out.push_back(DecodePackedValue(key.data() + off));
  }
  return out;
}

/// \brief Bound tuple index of a bare column-reference expression, or
/// kEvalExpr(-1) when the expression needs interpretation.
int ColumnFastPath(const ExprPtr& expr) {
  if (expr != nullptr && expr->is_column() && expr->is_bound()) {
    return static_cast<int>(expr->bound_index());
  }
  return -1;
}

}  // namespace

// ---------------------------------------------------------------------------
// SelectProjectOp
// ---------------------------------------------------------------------------

SelectProjectOp::SelectProjectOp(QueryNodePtr node)
    : Operator(/*num_ports=*/1), node_(std::move(node)) {
  SP_CHECK(node_->kind == QueryKind::kSelectProject)
      << "SelectProjectOp over non-select node " << node_->name;
  output_cols_.reserve(node_->outputs.size());
  for (const NamedExpr& o : node_->outputs) {
    output_cols_.push_back(ColumnFastPath(o.expr));
  }
  // Columnar eligibility: every WHERE clause and output expression must be
  // vectorizable (string outputs disqualify via their literal/column types).
  columnar_ok_ =
      node_->where == nullptr || ExprVectorizable(node_->where);
  for (const NamedExpr& o : node_->outputs) {
    if (!ExprVectorizable(o.expr) || o.type == DataType::kString) {
      columnar_ok_ = false;
    }
  }
  if (columnar_ok_) {
    col_where_ = CompileOrderedClauses(node_->where);
    col_outputs_.resize(node_->outputs.size());
    for (size_t i = 0; i < node_->outputs.size(); ++i) {
      if (output_cols_[i] < 0) {
        col_outputs_[i].emplace(node_->outputs[i].expr);
      }
    }
  }
}

void SelectProjectOp::DoPush(size_t, const Tuple& tuple) {
  if (node_->where) {
    ++stats_.predicate_evals;
    if (!node_->where->Eval(tuple).Truthy()) return;
  }
  Tuple out;
  out.values().reserve(node_->outputs.size());
  for (const NamedExpr& o : node_->outputs) out.Append(o.expr->Eval(tuple));
  Emit(out);
}

void SelectProjectOp::DoPushBatch(size_t, TupleSpan batch) {
  // Overwrite out_batch_ slots in place instead of clear()+push_back: that
  // pattern frees and reallocates every output tuple's value vector per
  // batch, which dominates a cheap projection. Slots past the live prefix
  // keep their capacity; EmitBatch only sees the prefix.
  size_t n = 0;
  const size_t width = node_->outputs.size();
  for (const Tuple& tuple : batch) {
    if (node_->where) {
      ++stats_.predicate_evals;
      if (!node_->where->Eval(tuple).Truthy()) continue;
    }
    if (n == out_batch_.size()) out_batch_.emplace_back();
    std::vector<Value>& vals = out_batch_[n].values();
    vals.resize(width);
    for (size_t i = 0; i < width; ++i) {
      if (output_cols_[i] >= 0) {
        vals[i] = tuple.at(static_cast<size_t>(output_cols_[i]));
      } else {
        vals[i] = node_->outputs[i].expr->Eval(tuple);
      }
    }
    ++n;
  }
  EmitBatch(TupleSpan(out_batch_.data(), n));
}

void SelectProjectOp::DoPushColumns(size_t port, const ColumnBatch& batch,
                                    const SelectionVector& sel) {
  if (!columnar_ok_) {
    Operator::DoPushColumns(port, batch, sel);
    return;
  }
  col_sel_.assign(sel.begin(), sel.end());
  if (node_->where != nullptr) {
    // One predicate evaluation per delivered tuple, like the row paths —
    // clause-at-a-time filtering is an implementation detail, not extra
    // predicate work in the cost model.
    stats_.predicate_evals += col_sel_.size();
    for (ColumnEvaluator& clause : col_where_) {
      if (col_sel_.empty()) break;
      clause.Filter(batch, &col_sel_);
    }
  }
  if (col_sel_.empty()) return;
  col_out_.Clear();
  col_out_.SetRows(batch.rows());
  for (size_t i = 0; i < node_->outputs.size(); ++i) {
    if (output_cols_[i] >= 0) {
      col_out_.AddColumn(batch.col_ptr(static_cast<size_t>(output_cols_[i])));
    } else {
      const Column* r = col_outputs_[i]->Evaluate(batch, col_sel_);
      // Non-owning alias of the evaluator's scratch: downstream borrows it
      // only for the duration of EmitColumns, and each output owns its own
      // evaluator, so nothing is overwritten before the call returns.
      col_out_.AddColumn(ColumnPtr(ColumnPtr(), const_cast<Column*>(r)));
    }
  }
  EmitColumns(col_out_, col_sel_);
}

// ---------------------------------------------------------------------------
// AggregateOp
// ---------------------------------------------------------------------------

AggregateOp::AggregateOp(QueryNodePtr node, const UdafRegistry* registry)
    : Operator(/*num_ports=*/1), node_(std::move(node)), registry_(registry) {
  SP_CHECK(node_->kind == QueryKind::kAggregate)
      << "AggregateOp over non-aggregate node " << node_->name;
  for (const AggregateSpec& spec : node_->aggregates) {
    agg_arg_types_.push_back(spec.args.empty() ? DataType::kNull
                                               : spec.args[0]->result_type());
    arg_cols_.push_back(spec.args.empty() ? kNoArg
                                          : ColumnFastPath(spec.args[0]));
  }
  // The packed representation requires every group-by column to have a
  // fixed-width static type. Runtime values then have that type or are NULL
  // (expression anomalies), both of which pack losslessly.
  packable_ = true;
  group_cols_.reserve(node_->group_by.size());
  for (const NamedExpr& g : node_->group_by) {
    if (!IsPackableType(g.type)) packable_ = false;
    group_cols_.push_back(ColumnFastPath(g.expr));
  }
  out_cols_.reserve(node_->outputs.size());
  for (const NamedExpr& o : node_->outputs) {
    out_cols_.push_back(ColumnFastPath(o.expr));
  }
  key_buf_.assign(node_->group_by.size() * kPackedSlotWidth, '\0');
  temporal_slot_ = node_->temporal_group_idx.has_value()
                       ? static_cast<int>(*node_->temporal_group_idx)
                       : -1;
  static_assert(sizeof(epoch_bytes_) == kPackedSlotWidth);
  // Resolve the UDAF definitions once; group inserts are far too hot for a
  // registry (std::map) lookup per state.
  udafs_.reserve(node_->aggregates.size());
  for (const AggregateSpec& spec : node_->aggregates) {
    auto udaf = registry_->Get(spec.udaf);
    SP_CHECK(udaf.ok()) << "unregistered UDAF " << spec.udaf;
    udafs_.push_back(*udaf);
  }
  // Columnar eligibility: the packed key representation plus vectorizable
  // WHERE, group-by, and aggregate-argument expressions. HAVING runs at
  // flush over row tuples on every path, so it never disqualifies.
  columnar_ok_ = packable_ && (node_->where == nullptr ||
                               ExprVectorizable(node_->where));
  for (const NamedExpr& g : node_->group_by) {
    if (!ExprVectorizable(g.expr)) columnar_ok_ = false;
  }
  for (const AggregateSpec& spec : node_->aggregates) {
    if (!spec.args.empty() && !ExprVectorizable(spec.args[0])) {
      columnar_ok_ = false;
    }
  }
  if (columnar_ok_) {
    col_where_ = CompileOrderedClauses(node_->where);
    col_group_evals_.resize(group_cols_.size());
    for (size_t i = 0; i < group_cols_.size(); ++i) {
      if (group_cols_[i] < 0) {
        col_group_evals_[i].emplace(node_->group_by[i].expr);
      }
    }
    col_arg_evals_.resize(arg_cols_.size());
    for (size_t i = 0; i < arg_cols_.size(); ++i) {
      if (arg_cols_[i] == kEvalExpr) {
        col_arg_evals_[i].emplace(node_->aggregates[i].args[0]);
      }
    }
    col_gcols_.resize(group_cols_.size(), nullptr);
    col_acols_.resize(arg_cols_.size(), nullptr);
  }
}

std::vector<std::unique_ptr<UdafState>> AggregateOp::NewStates() const {
  std::vector<std::unique_ptr<UdafState>> states;
  states.reserve(udafs_.size());
  for (size_t i = 0; i < udafs_.size(); ++i) {
    states.push_back(udafs_[i]->NewState(agg_arg_types_[i]));
  }
  return states;
}

AggregateOp::GroupStates AggregateOp::AcquireStates() {
  while (pool_states_ && !state_pool_.empty()) {
    GroupStates states = std::move(state_pool_.back());
    state_pool_.pop_back();
    bool reset_ok = true;
    for (const auto& state : states) reset_ok = reset_ok && state->Reset();
    if (reset_ok) return states;
    // A registered UDAF without in-place reset: stop pooling entirely
    // (mixing recycled and fresh states per group would be error-prone).
    pool_states_ = false;
    state_pool_.clear();
  }
  return NewStates();
}

void AggregateOp::DoPush(size_t, const Tuple& tuple) {
  // Stay on whichever key representation opened the current window: mixing
  // representations mid-window would split a group across the two tables.
  if (!packed_table_.empty()) {
    ProcessPacked(tuple);
  } else {
    ProcessGeneric(tuple);
  }
}

void AggregateOp::DoPushBatch(size_t, TupleSpan batch) {
  if (!packable_ || !groups_.empty()) {
    for (const Tuple& t : batch) ProcessGeneric(t);
    return;
  }
  for (const Tuple& t : batch) ProcessPacked(t);
}

void AggregateOp::DoPushColumns(size_t port, const ColumnBatch& batch,
                                const SelectionVector& sel) {
  // Same mixed-window rule as DoPushBatch: a window opened by the generic
  // representation must finish on it. The fallback rematerializes rows and
  // DoPushBatch re-applies the rule.
  if (!columnar_ok_ || !groups_.empty()) {
    Operator::DoPushColumns(port, batch, sel);
    return;
  }
  ProcessColumns(batch, sel);
}

void AggregateOp::ProcessColumns(const ColumnBatch& batch,
                                 const SelectionVector& sel) {
  const SelectionVector* live = &sel;
  if (node_->where != nullptr) {
    stats_.predicate_evals += sel.size();
    col_sel_.assign(sel.begin(), sel.end());
    for (ColumnEvaluator& clause : col_where_) {
      if (col_sel_.empty()) break;
      clause.Filter(batch, &col_sel_);
    }
    live = &col_sel_;
  }
  if (live->empty()) return;
  // Resolve each group slot / aggregate argument to a column once per
  // batch: either an input column or the evaluator's result over the
  // surviving rows.
  const size_t num_slots = group_cols_.size();
  for (size_t i = 0; i < num_slots; ++i) {
    col_gcols_[i] =
        group_cols_[i] >= 0
            ? &batch.col(static_cast<size_t>(group_cols_[i]))
            : col_group_evals_[i]->Evaluate(batch, *live);
  }
  for (size_t i = 0; i < arg_cols_.size(); ++i) {
    if (arg_cols_[i] == kNoArg) {
      col_acols_[i] = nullptr;
    } else if (arg_cols_[i] >= 0) {
      col_acols_[i] = &batch.col(static_cast<size_t>(arg_cols_[i]));
    } else {
      col_acols_[i] = col_arg_evals_[i]->Evaluate(batch, *live);
    }
  }
  const uint64_t w = shed_weight_ != nullptr ? *shed_weight_ : 1;
  for (uint32_t row : *live) {
    // Pack the key straight from the cells — the column payload encoding is
    // PackValueTo's payload encoding, so this produces byte-identical keys
    // to the row paths.
    char* p = key_buf_.data();
    bool drop = false;
    for (size_t i = 0; i < num_slots; ++i) {
      const Column& c = *col_gcols_[i];
      if (CellIsNull(c, row)) {
        *p = static_cast<char>(DataType::kNull);
        std::memset(p + 1, 0, sizeof(uint64_t));
      } else {
        *p = static_cast<char>(c.type);
        std::memcpy(p + 1, &c.data[row], sizeof(uint64_t));
      }
      p += kPackedSlotWidth;
      if (static_cast<int>(i) == temporal_slot_ &&
          !(epoch_bytes_valid_ &&
            std::memcmp(epoch_bytes_, p - kPackedSlotWidth,
                        kPackedSlotWidth) == 0)) {
        if (!AdvanceWindow(DecodePackedValue(p - kPackedSlotWidth))) {
          drop = true;  // late row: dropped and counted by AdvanceWindow
          break;
        }
        std::memcpy(epoch_bytes_, p - kPackedSlotWidth, kPackedSlotWidth);
        epoch_bytes_valid_ = true;
      }
    }
    if (drop) continue;
    bool inserted = false;
    GroupStates* states = packed_table_.FindOrInsert(
        key_buf_, HashBytesWide(key_buf_.data(), key_buf_.size()), &inserted);
    if (inserted) {
      ++stats_.group_inserts;
      *states = AcquireStates();
    } else {
      ++stats_.group_probes;
    }
    for (size_t i = 0; i < arg_cols_.size(); ++i) {
      static const Value kNullArg;
      const Column* ac = col_acols_[i];
      const Value arg = ac == nullptr ? kNullArg : ac->ValueAt(row);
      if (w > 1) {
        (*states)[i]->UpdateWeighted(arg, w);
      } else {
        (*states)[i]->Update(arg);
      }
    }
  }
}

bool AggregateOp::AdvanceWindow(const Value& epoch) {
  // Tumbling-window boundary: the temporal key advanced. Late tuples —
  // belonging to an already-flushed window — are dropped and counted, the
  // policy a production DSMS applies (ordered merges prevent this in
  // well-formed plans).
  if (current_epoch_.has_value() && !(epoch == *current_epoch_)) {
    if (epoch < *current_epoch_) {
      ++stats_.late_tuples;
      return false;
    }
    FlushWindow();
  }
  current_epoch_ = epoch;
  return true;
}

void AggregateOp::ProcessGeneric(const Tuple& tuple) {
  if (node_->where) {
    ++stats_.predicate_evals;
    if (!node_->where->Eval(tuple).Truthy()) return;
  }
  std::vector<Value> key;
  key.reserve(node_->group_by.size());
  for (const NamedExpr& g : node_->group_by) key.push_back(g.expr->Eval(tuple));

  if (node_->temporal_group_idx.has_value() &&
      !AdvanceWindow(key[*node_->temporal_group_idx])) {
    return;
  }

  auto [it, inserted] = groups_.try_emplace(std::move(key));
  if (inserted) {
    ++stats_.group_inserts;
    it->second = NewStates();
  } else {
    ++stats_.group_probes;
  }
  // Ambient shed weight: while the overload controller keeps 1 tuple in m,
  // each admitted tuple stands for m observations (Horvitz–Thompson).
  const uint64_t w = shed_weight_ != nullptr ? *shed_weight_ : 1;
  for (size_t i = 0; i < node_->aggregates.size(); ++i) {
    const AggregateSpec& spec = node_->aggregates[i];
    Value arg = spec.args.empty() ? Value::Null() : spec.args[0]->Eval(tuple);
    if (w > 1) {
      it->second[i]->UpdateWeighted(arg, w);
    } else {
      it->second[i]->Update(arg);
    }
  }
}

void AggregateOp::ProcessPacked(const Tuple& tuple) {
  if (node_->where) {
    ++stats_.predicate_evals;
    if (!node_->where->Eval(tuple).Truthy()) return;
  }
  // Build the packed key over the fixed-width scratch buffer with raw
  // pointer writes, reading bare column references straight out of the
  // tuple (no Value materialization, no per-tuple key allocation). The
  // window check compares packed epoch bytes first: equal bytes means the
  // epoch Value is unchanged, so the common within-window tuple skips
  // AdvanceWindow entirely.
  char* p = key_buf_.data();
  const size_t num_slots = group_cols_.size();
  for (size_t i = 0; i < num_slots; ++i) {
    if (group_cols_[i] >= 0) {
      p = PackValueTo(tuple.at(static_cast<size_t>(group_cols_[i])), p);
    } else {
      p = PackValueTo(node_->group_by[i].expr->Eval(tuple), p);
    }
    if (static_cast<int>(i) == temporal_slot_ &&
        !(epoch_bytes_valid_ &&
          std::memcmp(epoch_bytes_, p - kPackedSlotWidth,
                      kPackedSlotWidth) == 0)) {
      if (!AdvanceWindow(DecodePackedValue(p - kPackedSlotWidth))) return;
      // AdvanceWindow may have flushed (invalidating the cache); the bytes
      // just written are the new current window's epoch.
      std::memcpy(epoch_bytes_, p - kPackedSlotWidth, kPackedSlotWidth);
      epoch_bytes_valid_ = true;
    }
  }

  bool inserted = false;
  GroupStates* states = packed_table_.FindOrInsert(
      key_buf_, HashBytesWide(key_buf_.data(), key_buf_.size()), &inserted);
  if (inserted) {
    ++stats_.group_inserts;
    *states = AcquireStates();
  } else {
    ++stats_.group_probes;
  }
  const uint64_t w = shed_weight_ != nullptr ? *shed_weight_ : 1;
  if (w > 1) {
    for (size_t i = 0; i < node_->aggregates.size(); ++i) {
      if (arg_cols_[i] == kNoArg) {
        static const Value kNullArg;
        (*states)[i]->UpdateWeighted(kNullArg, w);
      } else if (arg_cols_[i] >= 0) {
        (*states)[i]->UpdateWeighted(tuple.at(static_cast<size_t>(arg_cols_[i])),
                                     w);
      } else {
        (*states)[i]->UpdateWeighted(node_->aggregates[i].args[0]->Eval(tuple),
                                     w);
      }
    }
    return;
  }
  for (size_t i = 0; i < node_->aggregates.size(); ++i) {
    if (arg_cols_[i] == kNoArg) {
      static const Value kNullArg;
      (*states)[i]->Update(kNullArg);
    } else if (arg_cols_[i] >= 0) {
      (*states)[i]->Update(tuple.at(static_cast<size_t>(arg_cols_[i])));
    } else {
      (*states)[i]->Update(node_->aggregates[i].args[0]->Eval(tuple));
    }
  }
}

bool AggregateOp::ShedSampleable() const {
  for (const auto& udaf : udafs_) {
    if (!udaf->sampleable()) return false;
  }
  return true;
}

void AggregateOp::FlushEntry(const std::vector<Value>& key,
                             const GroupStates& states) {
  std::vector<Value>& vals = internal_scratch_.values();
  vals.resize(key.size() + states.size());
  size_t n = 0;
  for (const Value& v : key) vals[n++] = v;
  for (const auto& state : states) vals[n++] = state->Final();
  FlushInternal();
}

void AggregateOp::FlushEntryPacked(std::string_view key,
                                   const GroupStates& states) {
  std::vector<Value>& vals = internal_scratch_.values();
  const size_t num_keys = key.size() / kPackedSlotWidth;
  vals.resize(num_keys + states.size());
  for (size_t i = 0; i < num_keys; ++i) {
    vals[i] = DecodePackedValue(key.data() + i * kPackedSlotWidth);
  }
  for (size_t j = 0; j < states.size(); ++j) {
    vals[num_keys + j] = states[j]->Final();
  }
  FlushInternal();
}

void AggregateOp::FlushInternal() {
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

void AggregateOp::DoBindTelemetry(StatsScope* scope) {
  t_window_flushes_ = scope->counter(stats::kWindowFlushes);
  t_groups_flushed_ = scope->counter(stats::kGroupsFlushed);
  t_window_groups_ = scope->histogram(stats::kWindowGroups);
  t_groups_peak_ = scope->gauge(stats::kGroupsPeak);
}

void AggregateOp::FlushWindow() {
  epoch_bytes_valid_ = false;  // a new window begins after any flush
  if (groups_.empty() && packed_table_.empty()) return;
  // Occupancy is the group count regardless of key representation, so the
  // instruments are identical on the per-tuple and batched paths.
  const uint64_t occupancy = groups_.size() + packed_table_.size();
  if (t_window_flushes_ != nullptr) {
    t_window_flushes_->Inc();
    t_groups_flushed_->Add(occupancy);
    t_window_groups_->Record(occupancy);
    t_groups_peak_->SetMax(static_cast<int64_t>(occupancy));
  }
  flush_batch_.clear();
  if (!groups_.empty()) {
    if (sorted_flush_) {
      // Deterministic emission: sort group keys.
      std::vector<const GroupMap::value_type*> entries;
      entries.reserve(groups_.size());
      for (const auto& kv : groups_) entries.push_back(&kv);
      std::sort(entries.begin(), entries.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      for (const auto* entry : entries) FlushEntry(entry->first, entry->second);
    } else {
      for (const auto& kv : groups_) FlushEntry(kv.first, kv.second);
    }
    groups_.clear();
  } else if (sorted_flush_) {
    // Decode each packed key back to Values once; sorting uses the decoded
    // keys so emission order matches the generic path exactly.
    std::vector<std::pair<std::vector<Value>, const GroupStates*>> entries;
    entries.reserve(packed_table_.size());
    packed_table_.ForEach([&entries](std::string_view key, GroupStates& s) {
      entries.emplace_back(DecodePackedKey(key), &s);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, states] : entries) FlushEntry(key, *states);
    packed_table_.Recycle(pool_states_ ? &state_pool_ : nullptr);
  } else {
    // Hash-order emission: one pass over the table, decoding each key into
    // the reused internal tuple — no key vectors, no entry list, no sort.
    packed_table_.ForEach([this](std::string_view key, GroupStates& s) {
      FlushEntryPacked(key, s);
    });
    packed_table_.Recycle(pool_states_ ? &state_pool_ : nullptr);
  }
  if (trace_events_enabled()) {
    RecordTraceEvent("window_flush",
                     current_epoch_.has_value() ? current_epoch_->ToString()
                                                : std::string(),
                     occupancy, flush_batch_.size());
  }
  EmitBatch(flush_batch_);
}

void AggregateOp::DoFinish() { FlushWindow(); }

void AggregateOp::CheckpointState(std::string* out) const {
  // Layout: u8 has-epoch [value], varint group count then per group (varint
  // key arity, key values, accumulator blobs), and a trailing varint 0 (the
  // retired packed-entry count). A window opened by PushBatch lives in the
  // packed table and one opened by Push in the generic table; both write the
  // generic layout, with packed keys decoded, in one sorted key order. So
  // the bytes are a pure function of the logical state, independent of
  // delivery granularity and hash-table history.
  out->push_back(current_epoch_.has_value() ? 1 : 0);
  if (current_epoch_.has_value()) EncodeValue(*current_epoch_, out);

  std::vector<std::vector<Value>> decoded;
  decoded.reserve(packed_table_.size());  // stable: entries point into it
  std::vector<std::pair<const std::vector<Value>*, const GroupStates*>>
      entries;
  entries.reserve(groups_.size() + packed_table_.size());
  for (const auto& [key, states] : groups_) entries.emplace_back(&key, &states);
  packed_table_.ForEach(
      [&](std::string_view key, const GroupStates& states) {
        decoded.push_back(DecodePackedKey(key));
        entries.emplace_back(&decoded.back(), &states);
      });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  PutVarint(entries.size(), out);
  for (const auto& [key, states] : entries) {
    PutVarint(key->size(), out);
    for (const Value& v : *key) EncodeValue(v, out);
    for (const auto& state : *states) state->Save(out);
  }
  PutVarint(0, out);
}

Status AggregateOp::RestoreState(std::string_view data) {
  groups_.clear();
  packed_table_.Recycle(nullptr);
  state_pool_.clear();
  current_epoch_.reset();
  epoch_bytes_valid_ = false;

  size_t offset = 0;
  if (data.empty()) {
    return Status::InvalidArgument(label(), ": empty checkpoint blob");
  }
  if (data[offset++] != 0) {
    Value epoch;
    SP_RETURN_NOT_OK(DecodeValue(data, &offset, &epoch));
    current_epoch_ = std::move(epoch);
  }

  uint64_t generic = 0;
  SP_RETURN_NOT_OK(GetVarint(data, &offset, &generic));
  if (generic > data.size()) {
    return Status::InvalidArgument(label(), ": implausible group count ",
                                   generic);
  }
  for (uint64_t g = 0; g < generic; ++g) {
    uint64_t arity = 0;
    SP_RETURN_NOT_OK(GetVarint(data, &offset, &arity));
    // A flush reads every group slot of the key.
    if (arity != node_->group_by.size()) {
      return Status::InvalidArgument(label(), ": group key arity ", arity,
                                     ", expected ", node_->group_by.size());
    }
    std::vector<Value> key(arity);
    for (Value& v : key) SP_RETURN_NOT_OK(DecodeValue(data, &offset, &v));
    GroupStates states = NewStates();
    for (size_t i = 0; i < states.size(); ++i) {
      if (!states[i]->Load(data, &offset)) {
        return Status::InvalidArgument(label(), ": malformed accumulator ", i,
                                       " (", node_->aggregates[i].udaf, ")");
      }
    }
    if (!groups_.try_emplace(std::move(key), std::move(states)).second) {
      return Status::InvalidArgument(label(),
                                     ": duplicate group key in checkpoint");
    }
  }

  // The packed-entry count is retired: every writer emits 0.
  uint64_t packed = 0;
  SP_RETURN_NOT_OK(GetVarint(data, &offset, &packed));
  if (packed != 0) {
    return Status::InvalidArgument(label(), ": retired packed-entry count ",
                                   packed, " is not 0");
  }
  if (offset != data.size()) {
    return Status::InvalidArgument(label(), ": checkpoint has ",
                                   data.size() - offset, " trailing bytes");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// JoinOp
// ---------------------------------------------------------------------------

JoinOp::JoinOp(QueryNodePtr node)
    : Operator(/*num_ports=*/2), node_(std::move(node)) {
  SP_CHECK(node_->kind == QueryKind::kJoin)
      << "JoinOp over non-join node " << node_->name;
  for (const EquiPred& pred : node_->equi_preds) {
    if (pred.temporal) {
      window_left_.push_back(pred.left);
      window_right_.push_back(pred.right);
    } else {
      key_left_.push_back(pred.left);
      key_right_.push_back(pred.right);
    }
  }
  left_width_ = node_->input_schemas[0]->num_fields();
  right_width_ = node_->input_schemas[1]->num_fields();
}

std::vector<Value> JoinOp::EvalKeys(const std::vector<ExprPtr>& exprs,
                                    const Tuple& t) const {
  std::vector<Value> out;
  out.reserve(exprs.size());
  for (const ExprPtr& e : exprs) out.push_back(e->Eval(t));
  return out;
}

void JoinOp::DoPush(size_t port, const Tuple& tuple) {
  std::vector<Value> wkey =
      EvalKeys(port == 0 ? window_left_ : window_right_, tuple);
  Window& w = windows_[wkey];
  if (port == 0) {
    w.left.push_back({tuple, false});
  } else {
    w.right.push_back({tuple, false});
  }
  if (!window_left_.empty()) {
    auto& wm = watermark_[port];
    if (!wm.has_value() || *wm < wkey) wm = wkey;
    if (watermark_[0].has_value() && watermark_[1].has_value()) {
      EvictBelow(std::min(*watermark_[0], *watermark_[1]));
    }
  }
}

void JoinOp::DoBindTelemetry(StatsScope* scope) {
  t_join_windows_ = scope->counter(stats::kJoinWindows);
  t_join_window_tuples_ = scope->histogram(stats::kJoinWindowTuples);
}

void JoinOp::EvictBelow(const std::vector<Value>& min_watermark) {
  while (!windows_.empty() && windows_.begin()->first < min_watermark) {
    JoinWindow(windows_.begin()->first, &windows_.begin()->second);
    windows_.erase(windows_.begin());
  }
}

void JoinOp::DoFinish() {
  // Join remaining windows in key order.
  for (auto& [key, w] : windows_) JoinWindow(key, &w);
  windows_.clear();
}

void JoinOp::EmitJoined(const Tuple& left, const Tuple& right) {
  Tuple concat = Tuple::Concat(left, right);
  if (node_->residual) {
    ++stats_.predicate_evals;
    if (!node_->residual->Eval(concat).Truthy()) return;
  }
  Tuple out;
  out.values().reserve(node_->outputs.size());
  for (const NamedExpr& o : node_->outputs) out.Append(o.expr->Eval(concat));
  Emit(out);
}

void JoinOp::EmitPadded(const Tuple& one_side, bool is_left) {
  Tuple padded;
  padded.values().reserve(left_width_ + right_width_);
  if (is_left) {
    for (const Value& v : one_side.values()) padded.Append(v);
    for (size_t i = 0; i < right_width_; ++i) padded.Append(Value::Null());
  } else {
    for (size_t i = 0; i < left_width_; ++i) padded.Append(Value::Null());
    for (const Value& v : one_side.values()) padded.Append(v);
  }
  Tuple out;
  out.values().reserve(node_->outputs.size());
  for (const NamedExpr& o : node_->outputs) out.Append(o.expr->Eval(padded));
  Emit(out);
}

void JoinOp::JoinWindow(const std::vector<Value>& key, Window* w) {
  const uint64_t buffered = w->left.size() + w->right.size();
  const uint64_t out_before = stats_.tuples_out;
  if (t_join_windows_ != nullptr) {
    t_join_windows_->Inc();
    t_join_window_tuples_->Record(buffered);
  }
  // Hash the right side on its equi keys.
  struct VecHash {
    size_t operator()(const std::vector<Value>& key) const {
      uint64_t h = Mix64(key.size());
      for (const Value& v : key) h = HashCombine(h, v.Hash());
      return static_cast<size_t>(h);
    }
  };
  std::unordered_map<std::vector<Value>, std::vector<size_t>, VecHash> hash;
  for (size_t i = 0; i < w->right.size(); ++i) {
    hash[EvalKeys(key_right_, w->right[i].tuple)].push_back(i);
  }
  for (BufferedTuple& lt : w->left) {
    auto it = hash.find(EvalKeys(key_left_, lt.tuple));
    if (it == hash.end()) continue;
    for (size_t ri : it->second) {
      ++stats_.join_probes;
      BufferedTuple& rt = w->right[ri];
      Tuple concat = Tuple::Concat(lt.tuple, rt.tuple);
      bool pass = true;
      if (node_->residual) {
        ++stats_.predicate_evals;
        pass = node_->residual->Eval(concat).Truthy();
      }
      if (!pass) continue;
      lt.matched = true;
      rt.matched = true;
      Tuple out;
      out.values().reserve(node_->outputs.size());
      for (const NamedExpr& o : node_->outputs) {
        out.Append(o.expr->Eval(concat));
      }
      Emit(out);
    }
  }
  // Outer padding.
  if (node_->join_type == JoinType::kLeftOuter ||
      node_->join_type == JoinType::kFullOuter) {
    for (const BufferedTuple& lt : w->left) {
      if (!lt.matched) EmitPadded(lt.tuple, /*is_left=*/true);
    }
  }
  if (node_->join_type == JoinType::kRightOuter ||
      node_->join_type == JoinType::kFullOuter) {
    for (const BufferedTuple& rt : w->right) {
      if (!rt.matched) EmitPadded(rt.tuple, /*is_left=*/false);
    }
  }
  if (trace_events_enabled()) {
    std::string epoch;
    for (const Value& v : key) {
      if (!epoch.empty()) epoch += ",";
      epoch += v.ToString();
    }
    RecordTraceEvent("window_join", std::move(epoch), buffered,
                     stats_.tuples_out - out_before);
  }
}

void JoinOp::CheckpointState(std::string* out) const {
  // Layout: per side u8 has-watermark [varint arity, values], varint window
  // count then per window (varint key arity, key values, per side varint
  // tuple count then tuple + u8 matched). windows_ is a std::map, so the
  // walk is already in deterministic key order.
  for (const auto& wm : watermark_) {
    out->push_back(wm.has_value() ? 1 : 0);
    if (wm.has_value()) {
      PutVarint(wm->size(), out);
      for (const Value& v : *wm) EncodeValue(v, out);
    }
  }
  PutVarint(windows_.size(), out);
  for (const auto& [key, w] : windows_) {
    PutVarint(key.size(), out);
    for (const Value& v : key) EncodeValue(v, out);
    for (const std::vector<BufferedTuple>* side : {&w.left, &w.right}) {
      PutVarint(side->size(), out);
      for (const BufferedTuple& bt : *side) {
        EncodeTuple(bt.tuple, out);
        out->push_back(bt.matched ? 1 : 0);
      }
    }
  }
}

Status JoinOp::RestoreState(std::string_view data) {
  windows_.clear();
  watermark_[0].reset();
  watermark_[1].reset();

  size_t offset = 0;
  for (auto& wm : watermark_) {
    if (offset >= data.size()) {
      return Status::InvalidArgument(label(), ": truncated watermark flag");
    }
    if (data[offset++] != 0) {
      uint64_t arity = 0;
      SP_RETURN_NOT_OK(GetVarint(data, &offset, &arity));
      if (arity != window_left_.size()) {
        return Status::InvalidArgument(label(), ": watermark arity ", arity,
                                       ", expected ", window_left_.size());
      }
      std::vector<Value> key(arity);
      for (Value& v : key) SP_RETURN_NOT_OK(DecodeValue(data, &offset, &v));
      wm = std::move(key);
    }
  }
  uint64_t num_windows = 0;
  SP_RETURN_NOT_OK(GetVarint(data, &offset, &num_windows));
  if (num_windows > data.size()) {
    return Status::InvalidArgument(label(), ": implausible window count ",
                                   num_windows);
  }
  for (uint64_t i = 0; i < num_windows; ++i) {
    uint64_t arity = 0;
    SP_RETURN_NOT_OK(GetVarint(data, &offset, &arity));
    if (arity != window_left_.size()) {
      return Status::InvalidArgument(label(), ": window key arity ", arity,
                                     ", expected ", window_left_.size());
    }
    std::vector<Value> key(arity);
    for (Value& v : key) SP_RETURN_NOT_OK(DecodeValue(data, &offset, &v));
    Window w;
    for (std::vector<BufferedTuple>* side : {&w.left, &w.right}) {
      // Buffered tuples are evaluated against their input's schema, so a
      // narrower one would read past its end when the window joins.
      const size_t width = side == &w.left ? left_width_ : right_width_;
      uint64_t count = 0;
      SP_RETURN_NOT_OK(GetVarint(data, &offset, &count));
      if (count > data.size()) {
        return Status::InvalidArgument(label(), ": implausible tuple count ",
                                       count);
      }
      side->reserve(count);
      for (uint64_t t = 0; t < count; ++t) {
        BufferedTuple bt;
        SP_RETURN_NOT_OK(DecodeTuple(data, &offset, &bt.tuple));
        if (bt.tuple.size() != width) {
          return Status::InvalidArgument(label(), ": buffered tuple arity ",
                                         bt.tuple.size(), ", expected ",
                                         width);
        }
        if (offset >= data.size()) {
          return Status::InvalidArgument(label(), ": truncated matched flag");
        }
        bt.matched = data[offset++] != 0;
        side->push_back(std::move(bt));
      }
    }
    if (!windows_.emplace(std::move(key), std::move(w)).second) {
      return Status::InvalidArgument(label(),
                                     ": duplicate window key in checkpoint");
    }
  }
  if (offset != data.size()) {
    return Status::InvalidArgument(label(), ": checkpoint has ",
                                   data.size() - offset, " trailing bytes");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MergeOp
// ---------------------------------------------------------------------------

MergeOp::MergeOp(std::string name, SchemaPtr schema, size_t num_inputs)
    : Operator(num_inputs),
      name_(std::move(name)),
      schema_(std::move(schema)),
      queues_(num_inputs),
      port_done_(num_inputs, false) {
  for (size_t i = 0; i < schema_->num_fields(); ++i) {
    if (schema_->field(i).is_temporal()) {
      temporal_idx_ = static_cast<int>(i);
      break;
    }
  }
}

void MergeOp::DoPush(size_t port, const Tuple& tuple) {
  if (temporal_idx_ < 0) {
    Emit(tuple);
    return;
  }
  queues_[port].push_back(tuple);
  Drain(/*final=*/false);
}

void MergeOp::DoPushBatch(size_t port, TupleSpan batch) {
  if (temporal_idx_ < 0) {
    EmitBatch(batch);
    return;
  }
  queues_[port].insert(queues_[port].end(), batch.begin(), batch.end());
  Drain(/*final=*/false);
}

void MergeOp::DoPushColumns(size_t port, const ColumnBatch& batch,
                            const SelectionVector& sel) {
  if (temporal_idx_ < 0) {
    EmitColumns(batch, sel);
    return;
  }
  Operator::DoPushColumns(port, batch, sel);
}

void MergeOp::OnPortFinished(size_t port) {
  port_done_[port] = true;
  if (temporal_idx_ >= 0) Drain(/*final=*/false);
}

void MergeOp::DoFinish() {
  if (temporal_idx_ >= 0) Drain(/*final=*/true);
}

void MergeOp::Drain(bool final) {
  const size_t t = static_cast<size_t>(temporal_idx_);
  drain_batch_.clear();
  while (true) {
    // Ordered merge: we can emit only when every live (unfinished) port has a
    // tuple buffered, or when finalizing.
    int best = -1;
    bool blocked = false;
    for (size_t p = 0; p < queues_.size(); ++p) {
      if (queues_[p].empty()) {
        if (!port_done_[p] && !final) {
          blocked = true;
          break;
        }
        continue;
      }
      if (best < 0 ||
          queues_[p].front().at(t) < queues_[best].front().at(t)) {
        best = static_cast<int>(p);
      }
    }
    if (blocked || best < 0) break;
    drain_batch_.push_back(std::move(queues_[best].front()));
    queues_[best].pop_front();
  }
  // Tuples released by this pass travel downstream as one batch.
  EmitBatch(drain_batch_);
}

void MergeOp::CheckpointState(std::string* out) const {
  // Layout: per port u8 done + varint queue length + queued tuples, in port
  // order (deterministic: the queues are FIFO).
  for (size_t p = 0; p < queues_.size(); ++p) {
    out->push_back(port_done_[p] ? 1 : 0);
    PutVarint(queues_[p].size(), out);
    for (const Tuple& t : queues_[p]) EncodeTuple(t, out);
  }
}

Status MergeOp::RestoreState(std::string_view data) {
  size_t offset = 0;
  for (size_t p = 0; p < queues_.size(); ++p) {
    queues_[p].clear();
    if (offset >= data.size()) {
      return Status::InvalidArgument(label(), ": truncated port ", p);
    }
    port_done_[p] = data[offset++] != 0;
    uint64_t count = 0;
    SP_RETURN_NOT_OK(GetVarint(data, &offset, &count));
    if (count > data.size()) {
      return Status::InvalidArgument(label(), ": implausible queue length ",
                                     count);
    }
    for (uint64_t t = 0; t < count; ++t) {
      Tuple tuple;
      SP_RETURN_NOT_OK(DecodeTuple(data, &offset, &tuple));
      // Drain reads the temporal slot of every queued tuple.
      if (tuple.size() != schema_->num_fields()) {
        return Status::InvalidArgument(label(), ": queued tuple arity ",
                                       tuple.size(), ", expected ",
                                       schema_->num_fields());
      }
      queues_[p].push_back(std::move(tuple));
    }
  }
  if (offset != data.size()) {
    return Status::InvalidArgument(label(), ": checkpoint has ",
                                   data.size() - offset, " trailing bytes");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

Result<OperatorPtr> MakeOperator(QueryNodePtr node,
                                 const UdafRegistry* registry) {
  switch (node->kind) {
    case QueryKind::kSelectProject:
      return OperatorPtr(std::make_unique<SelectProjectOp>(std::move(node)));
    case QueryKind::kAggregate:
      return OperatorPtr(
          std::make_unique<AggregateOp>(std::move(node), registry));
    case QueryKind::kJoin:
      return OperatorPtr(std::make_unique<JoinOp>(std::move(node)));
  }
  return Status::Internal("unknown query kind");
}

}  // namespace streampart
