#include "exec/sliding.h"

#include <algorithm>

#include "types/serde.h"

namespace streampart {

namespace {

/// \brief Bound tuple index of a bare column-reference expression, or -1
/// when the expression needs interpretation (mirrors ops.cc).
int ColumnFastPath(const ExprPtr& expr) {
  if (expr != nullptr && expr->is_column() && expr->is_bound()) {
    return static_cast<int>(expr->bound_index());
  }
  return -1;
}

}  // namespace

SlidingAggregateOp::SlidingAggregateOp(QueryNodePtr node,
                                       const UdafRegistry* registry,
                                       SlidingSpec spec)
    : Operator(/*num_ports=*/1),
      node_(std::move(node)),
      registry_(registry),
      spec_(spec) {}

Result<std::unique_ptr<SlidingAggregateOp>> SlidingAggregateOp::Make(
    QueryNodePtr node, const UdafRegistry* registry, SlidingSpec spec) {
  if (node->kind != QueryKind::kAggregate) {
    return Status::InvalidArgument("sliding evaluation needs an aggregation");
  }
  if (!node->temporal_group_idx.has_value()) {
    return Status::InvalidArgument(
        "sliding evaluation needs a temporal (pane) group key");
  }
  if (spec.window_panes == 0 || spec.slide_panes == 0) {
    return Status::InvalidArgument("window and slide must be positive");
  }
  const NamedExpr& pane_key = node->group_by[*node->temporal_group_idx];
  if (pane_key.type != DataType::kUint) {
    return Status::NotImplemented("pane key must be an unsigned integer");
  }
  std::unique_ptr<SlidingAggregateOp> op(
      new SlidingAggregateOp(std::move(node), registry, spec));
  SP_RETURN_NOT_OK(op->Init());
  return op;
}

Status SlidingAggregateOp::Init() {
  temporal_idx_ = *node_->temporal_group_idx;
  for (const AggregateSpec& spec : node_->aggregates) {
    agg_arg_types_.push_back(spec.args.empty() ? DataType::kNull
                                               : spec.args[0]->result_type());
    SP_ASSIGN_OR_RETURN(std::shared_ptr<const Udaf> udaf,
                        registry_->Get(spec.udaf));
    const UdafSplit& split = udaf->split();
    SlotSplit slot;
    slot.combine = split.combine;
    for (size_t c = 0; c < split.sub_udafs.size(); ++c) {
      SP_ASSIGN_OR_RETURN(std::shared_ptr<const Udaf> sub,
                          registry_->Get(split.sub_udafs[c]));
      SP_ASSIGN_OR_RETURN(std::shared_ptr<const Udaf> super,
                          registry_->Get(split.super_udafs[c]));
      std::vector<DataType> sub_args;
      if (split.sub_udafs[c] != "count") {
        sub_args.push_back(agg_arg_types_.back());
      }
      SP_ASSIGN_OR_RETURN(DataType sub_type, sub->ResultType(sub_args));
      slot.sub_result_types.push_back(sub_type);
      slot.sub.push_back(std::move(sub));
      slot.super.push_back(std::move(super));
    }
    sub_offset_.push_back(total_components_);
    total_components_ += slot.sub.size();
    splits_.push_back(std::move(slot));
  }
  // Columnar eligibility mirrors AggregateOp: vectorizable WHERE, group-by,
  // and argument expressions (the pane key is already known to be kUint).
  columnar_ok_ = node_->where == nullptr || ExprVectorizable(node_->where);
  for (const NamedExpr& g : node_->group_by) {
    if (!ExprVectorizable(g.expr) || g.type == DataType::kString) {
      columnar_ok_ = false;
    }
  }
  for (const AggregateSpec& spec : node_->aggregates) {
    if (!spec.args.empty() && !ExprVectorizable(spec.args[0])) {
      columnar_ok_ = false;
    }
  }
  if (columnar_ok_) {
    col_where_ = CompileOrderedClauses(node_->where);
    group_cols_.reserve(node_->group_by.size());
    col_group_evals_.resize(node_->group_by.size());
    for (size_t i = 0; i < node_->group_by.size(); ++i) {
      group_cols_.push_back(ColumnFastPath(node_->group_by[i].expr));
      if (group_cols_[i] < 0) {
        col_group_evals_[i].emplace(node_->group_by[i].expr);
      }
    }
    arg_cols_.reserve(node_->aggregates.size());
    col_arg_evals_.resize(node_->aggregates.size());
    for (size_t i = 0; i < node_->aggregates.size(); ++i) {
      const AggregateSpec& spec = node_->aggregates[i];
      arg_cols_.push_back(spec.args.empty() ? kNoArg
                                            : ColumnFastPath(spec.args[0]));
      if (arg_cols_[i] == kEvalExpr) col_arg_evals_[i].emplace(spec.args[0]);
    }
    col_gcols_.resize(node_->group_by.size(), nullptr);
    col_acols_.resize(node_->aggregates.size(), nullptr);
  }
  return Status::OK();
}

std::vector<std::unique_ptr<UdafState>> SlidingAggregateOp::NewSubStates()
    const {
  std::vector<std::unique_ptr<UdafState>> states;
  states.reserve(total_components_);
  for (size_t j = 0; j < splits_.size(); ++j) {
    for (size_t c = 0; c < splits_[j].sub.size(); ++c) {
      // "count" components take no argument; others fold the aggregate's arg.
      states.push_back(splits_[j].sub[c]->NewState(agg_arg_types_[j]));
    }
  }
  return states;
}

void SlidingAggregateOp::DoPush(size_t, const Tuple& tuple) {
  ProcessTuple(tuple);
}

void SlidingAggregateOp::DoPushBatch(size_t, TupleSpan batch) {
  for (const Tuple& t : batch) ProcessTuple(t);
}

void SlidingAggregateOp::ProcessTuple(const Tuple& tuple) {
  if (node_->where) {
    ++stats_.predicate_evals;
    if (!node_->where->Eval(tuple).Truthy()) return;
  }
  // Group key without the pane slot; the pane id separately. The key is
  // built in a scratch vector reused across tuples; probes of existing
  // groups (the common case) therefore allocate nothing.
  std::vector<Value>& key = key_scratch_;
  key.clear();
  uint64_t pane = 0;
  for (size_t i = 0; i < node_->group_by.size(); ++i) {
    Value v = node_->group_by[i].expr->Eval(tuple);
    if (i == temporal_idx_) {
      pane = v.AsUint64();
    } else {
      key.push_back(std::move(v));
    }
  }

  std::vector<std::unique_ptr<UdafState>>* states = AdvancePaneAndProbe(pane);
  for (size_t j = 0; j < splits_.size(); ++j) {
    const AggregateSpec& spec = node_->aggregates[j];
    Value arg = spec.args.empty() ? Value::Null() : spec.args[0]->Eval(tuple);
    for (size_t c = 0; c < splits_[j].sub.size(); ++c) {
      (*states)[sub_offset_[j] + c]->Update(arg);
    }
  }
}

std::vector<std::unique_ptr<UdafState>>* SlidingAggregateOp::AdvancePaneAndProbe(
    uint64_t pane) {
  if (current_pane_.has_value() && pane != *current_pane_) {
    ClosePane();
    current_pane_ = pane;
    // Emit every window whose end pane is now complete (strictly before the
    // newly opened pane). Large pane gaps fast-forward over windows that
    // would cover no data.
    while (!panes_.empty()) {
      uint64_t front = panes_.front().first;
      if (next_end_ < front) {
        uint64_t steps = (front - next_end_ + spec_.slide_panes - 1) /
                         spec_.slide_panes;
        next_end_ += steps * spec_.slide_panes;
      }
      uint64_t end = next_window_end();
      if (end >= pane) break;
      EmitWindow(end);
      advance_window();
    }
  } else if (!current_pane_.has_value()) {
    current_pane_ = pane;
    // First aligned window end at or after the first pane.
    uint64_t first = pane;
    uint64_t aligned =
        ((first + spec_.slide_panes) / spec_.slide_panes) * spec_.slide_panes -
        1;
    if (aligned < first) aligned += spec_.slide_panes;
    next_end_ = aligned;
  }

  auto it = open_.find(key_scratch_);
  if (it == open_.end()) {
    ++stats_.group_inserts;
    it = open_.emplace(key_scratch_, NewSubStates()).first;
  } else {
    ++stats_.group_probes;
  }
  return &it->second;
}

void SlidingAggregateOp::DoPushColumns(size_t port, const ColumnBatch& batch,
                                       const SelectionVector& sel) {
  if (!columnar_ok_) {
    Operator::DoPushColumns(port, batch, sel);
    return;
  }
  ProcessColumns(batch, sel);
}

void SlidingAggregateOp::ProcessColumns(const ColumnBatch& batch,
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
  for (size_t i = 0; i < group_cols_.size(); ++i) {
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
  for (uint32_t row : *live) {
    key_scratch_.clear();
    uint64_t pane = 0;
    for (size_t i = 0; i < group_cols_.size(); ++i) {
      const Column& c = *col_gcols_[i];
      if (i == temporal_idx_) {
        pane = c.ValueAt(row).AsUint64();
      } else {
        key_scratch_.push_back(c.ValueAt(row));
      }
    }
    std::vector<std::unique_ptr<UdafState>>* states =
        AdvancePaneAndProbe(pane);
    for (size_t j = 0; j < splits_.size(); ++j) {
      const Column* ac = col_acols_[j];
      const Value arg = ac == nullptr ? Value::Null() : ac->ValueAt(row);
      for (size_t c = 0; c < splits_[j].sub.size(); ++c) {
        (*states)[sub_offset_[j] + c]->Update(arg);
      }
    }
  }
}

void SlidingAggregateOp::DoBindTelemetry(StatsScope* scope) {
  t_pane_flushes_ = scope->counter(stats::kPaneFlushes);
  t_window_flushes_ = scope->counter(stats::kWindowFlushes);
  t_groups_flushed_ = scope->counter(stats::kGroupsFlushed);
  t_window_groups_ = scope->histogram(stats::kWindowGroups);
  t_groups_peak_ = scope->gauge(stats::kGroupsPeak);
}

void SlidingAggregateOp::ClosePane() {
  if (!current_pane_.has_value()) return;
  if (t_pane_flushes_ != nullptr) {
    t_pane_flushes_->Inc();
    t_groups_peak_->SetMax(open_.size());
  }
  PaneResult result;
  for (const auto& [key, states] : open_) {
    std::vector<Value> components;
    components.reserve(states.size());
    for (const auto& state : states) components.push_back(state->Final());
    result.emplace(key, std::move(components));
  }
  panes_.emplace_back(*current_pane_, std::move(result));
  open_.clear();
  current_pane_.reset();
}

void SlidingAggregateOp::EmitWindow(uint64_t end_pane) {
  uint64_t begin_pane =
      end_pane >= spec_.window_panes - 1 ? end_pane - (spec_.window_panes - 1)
                                         : 0;
  // Collect participating panes (the deque is ordered by pane id).
  std::vector<const PaneResult*> in_range;
  for (const auto& [id, result] : panes_) {
    if (id >= begin_pane && id <= end_pane) in_range.push_back(&result);
  }
  // Union of groups across the window, processed in sorted key order.
  std::map<std::vector<Value>, std::vector<std::unique_ptr<UdafState>>> groups;
  for (const PaneResult* pane : in_range) {
    for (const auto& [key, components] : *pane) {
      auto it = groups.find(key);
      if (it == groups.end()) {
        std::vector<std::unique_ptr<UdafState>> supers;
        supers.reserve(total_components_);
        for (size_t j = 0; j < splits_.size(); ++j) {
          for (size_t c = 0; c < splits_[j].super.size(); ++c) {
            supers.push_back(
                splits_[j].super[c]->NewState(splits_[j].sub_result_types[c]));
          }
        }
        it = groups.emplace(key, std::move(supers)).first;
      }
      for (size_t k = 0; k < components.size(); ++k) {
        it->second[k]->Update(components[k]);
      }
    }
  }

  const uint64_t window_groups = groups.size();
  if (t_window_flushes_ != nullptr) {
    t_window_flushes_->Inc();
    t_groups_flushed_->Add(window_groups);
    t_window_groups_->Record(window_groups);
  }

  window_batch_.clear();
  for (const auto& [key, supers] : groups) {
    // Combined aggregate values per original slot.
    std::vector<Value> agg_values;
    for (size_t j = 0; j < splits_.size(); ++j) {
      std::vector<Value> comps;
      for (size_t c = 0; c < splits_[j].super.size(); ++c) {
        comps.push_back(supers[sub_offset_[j] + c]->Final());
      }
      if (splits_[j].combine == nullptr) {
        agg_values.push_back(comps[0]);
      } else {
        std::vector<ExprPtr> lits;
        for (const Value& v : comps) lits.push_back(Expr::Literal(v));
        agg_values.push_back(splits_[j].combine(lits)->Eval(Tuple()));
      }
    }
    // Internal tuple: group keys (pane slot = window end) + aggregates.
    Tuple internal;
    internal.values().reserve(node_->group_by.size() +
                              node_->aggregates.size());
    size_t k = 0;
    for (size_t i = 0; i < node_->group_by.size(); ++i) {
      if (i == temporal_idx_) {
        internal.Append(Value::Uint(end_pane));
      } else {
        internal.Append(key[k++]);
      }
    }
    for (Value& v : agg_values) internal.Append(std::move(v));
    if (node_->having) {
      ++stats_.predicate_evals;
      if (!node_->having->Eval(internal).Truthy()) continue;
    }
    Tuple out;
    out.values().reserve(node_->outputs.size());
    for (const NamedExpr& o : node_->outputs) {
      out.Append(o.expr->Eval(internal));
    }
    window_batch_.push_back(std::move(out));
  }
  if (trace_events_enabled()) {
    RecordTraceEvent("window_flush", std::to_string(end_pane), window_groups,
                     window_batch_.size());
  }
  // One window's results travel downstream as one batch.
  EmitBatch(window_batch_);

  // Evict panes no future window needs (next end = end_pane + slide).
  uint64_t next_begin = end_pane + spec_.slide_panes >= spec_.window_panes - 1
                            ? end_pane + spec_.slide_panes -
                                  (spec_.window_panes - 1)
                            : 0;
  while (!panes_.empty() && panes_.front().first < next_begin) {
    panes_.pop_front();
  }
}

void SlidingAggregateOp::CheckpointState(std::string* out) const {
  // Layout: u8 has-open-pane [varint pane id], varint next_end_, varint
  // open-group count then per group (varint key arity, key values, one blob
  // per sub-component), varint closed-pane count then per pane (varint id,
  // varint group count, per group: key arity + values, varint component
  // count + component values). The open table is walked in sorted key order
  // so the bytes are a pure function of the logical state.
  out->push_back(current_pane_.has_value() ? 1 : 0);
  if (current_pane_.has_value()) PutVarint(*current_pane_, out);
  PutVarint(next_end_, out);

  std::vector<const PaneStates::value_type*> entries;
  entries.reserve(open_.size());
  for (const auto& kv : open_) entries.push_back(&kv);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  PutVarint(entries.size(), out);
  for (const auto* entry : entries) {
    PutVarint(entry->first.size(), out);
    for (const Value& v : entry->first) EncodeValue(v, out);
    for (const auto& state : entry->second) state->Save(out);
  }

  PutVarint(panes_.size(), out);
  for (const auto& [id, result] : panes_) {
    PutVarint(id, out);
    PutVarint(result.size(), out);
    for (const auto& [key, components] : result) {
      PutVarint(key.size(), out);
      for (const Value& v : key) EncodeValue(v, out);
      PutVarint(components.size(), out);
      for (const Value& v : components) EncodeValue(v, out);
    }
  }
}

Status SlidingAggregateOp::RestoreState(std::string_view data) {
  current_pane_.reset();
  next_end_ = 0;
  open_.clear();
  panes_.clear();

  size_t offset = 0;
  if (data.empty()) {
    return Status::InvalidArgument(label(), ": empty checkpoint blob");
  }
  if (data[offset++] != 0) {
    uint64_t pane = 0;
    SP_RETURN_NOT_OK(GetVarint(data, &offset, &pane));
    current_pane_ = pane;
  }
  SP_RETURN_NOT_OK(GetVarint(data, &offset, &next_end_));

  uint64_t open_groups = 0;
  SP_RETURN_NOT_OK(GetVarint(data, &offset, &open_groups));
  if (open_groups > data.size()) {
    return Status::InvalidArgument(label(), ": implausible group count ",
                                   open_groups);
  }
  // Group keys omit the pane slot; a window flush reads every other slot.
  const size_t key_arity = node_->group_by.size() - 1;
  for (uint64_t g = 0; g < open_groups; ++g) {
    uint64_t arity = 0;
    SP_RETURN_NOT_OK(GetVarint(data, &offset, &arity));
    if (arity != key_arity) {
      return Status::InvalidArgument(label(), ": group key arity ", arity,
                                     ", expected ", key_arity);
    }
    std::vector<Value> key(arity);
    for (Value& v : key) SP_RETURN_NOT_OK(DecodeValue(data, &offset, &v));
    std::vector<std::unique_ptr<UdafState>> states = NewSubStates();
    for (size_t i = 0; i < states.size(); ++i) {
      if (!states[i]->Load(data, &offset)) {
        return Status::InvalidArgument(label(), ": malformed sub-accumulator ",
                                       i);
      }
    }
    if (!open_.emplace(std::move(key), std::move(states)).second) {
      return Status::InvalidArgument(label(),
                                     ": duplicate group key in checkpoint");
    }
  }

  uint64_t num_panes = 0;
  SP_RETURN_NOT_OK(GetVarint(data, &offset, &num_panes));
  if (num_panes > data.size()) {
    return Status::InvalidArgument(label(), ": implausible pane count ",
                                   num_panes);
  }
  for (uint64_t p = 0; p < num_panes; ++p) {
    uint64_t id = 0;
    SP_RETURN_NOT_OK(GetVarint(data, &offset, &id));
    uint64_t groups = 0;
    SP_RETURN_NOT_OK(GetVarint(data, &offset, &groups));
    if (groups > data.size()) {
      return Status::InvalidArgument(label(), ": implausible group count ",
                                     groups);
    }
    PaneResult result;
    for (uint64_t g = 0; g < groups; ++g) {
      uint64_t arity = 0;
      SP_RETURN_NOT_OK(GetVarint(data, &offset, &arity));
      if (arity != key_arity) {
        return Status::InvalidArgument(label(), ": group key arity ", arity,
                                       ", expected ", key_arity);
      }
      std::vector<Value> key(arity);
      for (Value& v : key) SP_RETURN_NOT_OK(DecodeValue(data, &offset, &v));
      uint64_t comps = 0;
      SP_RETURN_NOT_OK(GetVarint(data, &offset, &comps));
      // One value per super-aggregate state a window flush feeds.
      if (comps != total_components_) {
        return Status::InvalidArgument(label(), ": component count ", comps,
                                       ", expected ", total_components_);
      }
      std::vector<Value> components(comps);
      for (Value& v : components) {
        SP_RETURN_NOT_OK(DecodeValue(data, &offset, &v));
      }
      if (!result.emplace(std::move(key), std::move(components)).second) {
        return Status::InvalidArgument(label(),
                                       ": duplicate group key in pane ", id);
      }
    }
    if (!panes_.empty() && panes_.back().first >= id) {
      return Status::InvalidArgument(label(), ": pane ids out of order");
    }
    panes_.emplace_back(id, std::move(result));
  }
  if (offset != data.size()) {
    return Status::InvalidArgument(label(), ": checkpoint has ",
                                   data.size() - offset, " trailing bytes");
  }
  return Status::OK();
}

void SlidingAggregateOp::DoFinish() {
  std::optional<uint64_t> last = current_pane_;
  if (!last.has_value() && !panes_.empty()) last = panes_.back().first;
  ClosePane();
  if (!last.has_value()) return;
  // Drain: emit every remaining window whose range still touches the data.
  while (next_end_ - std::min<uint64_t>(next_end_, spec_.window_panes - 1) <=
         *last) {
    EmitWindow(next_end_);
    advance_window();
    if (panes_.empty()) break;
  }
}

}  // namespace streampart
