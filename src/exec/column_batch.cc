#include "exec/column_batch.h"

#include <algorithm>
#include <functional>

#include "optimizer/filter_order.h"
#include "types/serde.h"

namespace streampart {

namespace {

// Cell-level widening helpers. These must produce exactly what
// Value::AsUint64 / AsInt64 / AsDouble produce for the same cell, so the
// columnar ladders below match the row interpreter bit-for-bit.
uint64_t CellAsU64(DataType type, uint64_t payload) {
  switch (type) {
    case DataType::kUint:
    case DataType::kIp:
    case DataType::kBool:
      return payload;
    case DataType::kInt:
      return payload;  // same two's-complement bits
    case DataType::kDouble: {
      double d;
      std::memcpy(&d, &payload, sizeof(double));
      return static_cast<uint64_t>(d);
    }
    default:
      return 0;
  }
}

int64_t CellAsI64(DataType type, uint64_t payload) {
  switch (type) {
    case DataType::kUint:
    case DataType::kIp:
    case DataType::kBool:
    case DataType::kInt:
      return static_cast<int64_t>(payload);
    case DataType::kDouble: {
      double d;
      std::memcpy(&d, &payload, sizeof(double));
      return static_cast<int64_t>(d);
    }
    default:
      return 0;
  }
}

double CellAsF64(DataType type, uint64_t payload) {
  switch (type) {
    case DataType::kUint:
    case DataType::kIp:
    case DataType::kBool:
      return static_cast<double>(payload);
    case DataType::kInt:
      return static_cast<double>(static_cast<int64_t>(payload));
    case DataType::kDouble: {
      double d;
      std::memcpy(&d, &payload, sizeof(double));
      return d;
    }
    default:
      return 0.0;
  }
}

// Matches Value::Truthy for fixed-width cells: NULL is false, doubles
// compare against 0.0 (so -0.0 is false and NaN is true), everything else
// is nonzero-payload. For kInt the payload is the two's-complement bit
// pattern, which is nonzero iff the signed value is.
bool CellTruthy(const Column& c, size_t row) {
  if (CellIsNull(c, row)) return false;
  if (c.type == DataType::kDouble) {
    double d;
    std::memcpy(&d, &c.data[row], sizeof(double));
    return d != 0.0;
  }
  return c.data[row] != 0;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(double));
  return bits;
}

// The unsigned ladder: the types CompareValues, EvalArithmetic and
// EvalBitwise widen with AsUint64, which for these is the raw payload.
bool OnUnsignedLadder(DataType type) {
  return type == DataType::kUint || type == DataType::kIp ||
         type == DataType::kBool;
}

// A null-free unsigned column: every cell's payload is the value the row
// interpreter would compute with, and no cell short-circuits to NULL.
bool DenseUnsigned(const Column& c) {
  return OnUnsignedLadder(c.type) && !c.has_nulls();
}

// `lit op x` as `x op' lit`.
BinaryOp MirrorComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq, kNe are symmetric
  }
}

// Keeps the selected rows whose payload satisfies cmp(payload, lit). The
// store is unconditional and the cursor advances without a branch, so the
// loop costs the same at any selectivity. Writing slot `kept` never
// overtakes the read position, so the compaction is in place.
template <typename Cmp>
void CompactWhere(const uint64_t* data, uint64_t lit, Cmp cmp,
                  SelectionVector* sel) {
  uint32_t* out = sel->data();
  size_t kept = 0;
  for (uint32_t row : *sel) {
    out[kept] = row;
    kept += cmp(data[row], lit) ? 1 : 0;
  }
  sel->resize(kept);
}

void CompactCompare(BinaryOp op, const uint64_t* data, uint64_t lit,
                    SelectionVector* sel) {
  switch (op) {
    case BinaryOp::kEq:
      return CompactWhere(data, lit, std::equal_to<uint64_t>(), sel);
    case BinaryOp::kNe:
      return CompactWhere(data, lit, std::not_equal_to<uint64_t>(), sel);
    case BinaryOp::kLt:
      return CompactWhere(data, lit, std::less<uint64_t>(), sel);
    case BinaryOp::kLe:
      return CompactWhere(data, lit, std::less_equal<uint64_t>(), sel);
    case BinaryOp::kGt:
      return CompactWhere(data, lit, std::greater<uint64_t>(), sel);
    case BinaryOp::kGe:
      return CompactWhere(data, lit, std::greater_equal<uint64_t>(), sel);
    default:
      SP_CHECK(false);
  }
}

// One operand of a dense unsigned kernel: a column's payloads, or (data ==
// nullptr) a literal broadcast as a scalar instead of a filled column.
struct DenseOperand {
  const uint64_t* data = nullptr;
  uint64_t scalar = 0;
};

// out[row] = f(a, b) over the selected rows, one loop per operand shape.
// \pre at most one operand is a scalar.
template <typename F>
void MapDense(const SelectionVector& sel, DenseOperand a, DenseOperand b,
              uint64_t* out, F f) {
  if (b.data == nullptr) {
    const uint64_t y = b.scalar;
    for (uint32_t row : sel) out[row] = f(a.data[row], y);
  } else if (a.data == nullptr) {
    const uint64_t x = a.scalar;
    for (uint32_t row : sel) out[row] = f(x, b.data[row]);
  } else {
    for (uint32_t row : sel) out[row] = f(a.data[row], b.data[row]);
  }
}

// The null-free unsigned bitwise/arithmetic kernels: EvalBitwise and the
// unsigned rung of EvalArithmetic with the type, null and opcode switches
// out of the row loop. Returns false, computing nothing, when the op could
// yield NULL here (division by a column or by a zero literal); the generic
// loop handles those.
bool MapDenseUnsigned(BinaryOp op, const SelectionVector& sel, DenseOperand a,
                      DenseOperand b, uint64_t* out) {
  switch (op) {
    case BinaryOp::kBitAnd:
      MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) { return x & y; });
      return true;
    case BinaryOp::kBitOr:
      MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) { return x | y; });
      return true;
    case BinaryOp::kBitXor:
      MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) { return x ^ y; });
      return true;
    case BinaryOp::kShiftLeft:
      MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) {
        return y >= 64 ? uint64_t{0} : x << y;
      });
      return true;
    case BinaryOp::kShiftRight:
      MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) {
        return y >= 64 ? uint64_t{0} : x >> y;
      });
      return true;
    case BinaryOp::kAdd:
      MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) { return x + y; });
      return true;
    case BinaryOp::kSub:
      MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) { return x - y; });
      return true;
    case BinaryOp::kMul:
      MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) { return x * y; });
      return true;
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      if (b.data != nullptr || b.scalar == 0) return false;
      if (op == BinaryOp::kDiv) {
        MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) { return x / y; });
      } else {
        MapDense(sel, a, b, out, [](uint64_t x, uint64_t y) { return x % y; });
      }
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* ExecModeToString(ExecMode mode) {
  switch (mode) {
    case ExecMode::kTuple:
      return "tuple";
    case ExecMode::kBatch:
      return "batch";
    case ExecMode::kColumnar:
      return "columnar";
  }
  return "unknown";
}

bool ParseExecMode(std::string_view text, ExecMode* out) {
  if (text == "tuple") {
    *out = ExecMode::kTuple;
  } else if (text == "batch") {
    *out = ExecMode::kBatch;
  } else if (text == "columnar") {
    *out = ExecMode::kColumnar;
  } else {
    return false;
  }
  return true;
}

bool ColumnBatch::FromTuples(TupleSpan batch) {
  const size_t rows = batch.size();
  const size_t width = rows == 0 ? 0 : batch[0].size();
  if (cols_.size() != width) {
    cols_.clear();
    cols_.reserve(width);
    for (size_t j = 0; j < width; ++j) {
      cols_.push_back(std::make_shared<Column>());
    }
  }
  rows_ = rows;
  for (size_t j = 0; j < width; ++j) {
    Column& c = *cols_[j];
    c.type = DataType::kNull;
    c.data.resize(rows);
    c.nulls.clear();
  }
  for (size_t r = 0; r < rows; ++r) {
    const Tuple& t = batch[r];
    if (t.size() != width) {
      Clear();
      return false;
    }
    for (size_t j = 0; j < width; ++j) {
      const Value& v = t.at(j);
      Column& c = *cols_[j];
      if (v.is_null()) {
        c.SetNull(r, rows);
        c.data[r] = 0;
        continue;
      }
      const DataType vt = v.type();
      if (vt == DataType::kString ||
          (c.type != DataType::kNull && c.type != vt)) {
        Clear();
        return false;
      }
      c.type = vt;
      c.data[r] = PackCellPayload(v);
    }
  }
  return true;
}

void ColumnBatch::MaterializeRow(size_t row, Tuple* out) const {
  std::vector<Value>& vals = out->values();
  vals.resize(cols_.size());
  for (size_t j = 0; j < cols_.size(); ++j) {
    vals[j] = cols_[j]->ValueAt(row);
  }
}

size_t ColumnBatch::RowWireBytes(size_t row) const {
  size_t bytes = 0;
  for (const ColumnPtr& c : cols_) {
    bytes += DataTypeWireSize(CellIsNull(*c, row) ? DataType::kNull : c->type);
  }
  return bytes;
}

size_t ColumnBatch::FixedRowWireBytes() const {
  size_t bytes = 0;
  for (const ColumnPtr& c : cols_) bytes += DataTypeWireSize(c->type);
  return bytes;
}

bool ColumnBatch::AnyNulls() const {
  for (const ColumnPtr& c : cols_) {
    if (c->has_nulls() || c->type == DataType::kNull) return true;
  }
  return false;
}

void EncodeColumns(const ColumnBatch& batch, const SelectionVector& sel,
                   std::string* out) {
  Tuple scratch;
  for (uint32_t row : sel) {
    batch.MaterializeRow(row, &scratch);
    EncodeTuple(scratch, out);
  }
}

bool ExprVectorizable(const ExprPtr& expr) {
  if (expr == nullptr) return false;
  switch (expr->kind()) {
    case ExprKind::kColumnRef:
      return expr->is_bound();
    case ExprKind::kLiteral:
      return expr->literal().type() != DataType::kString;
    case ExprKind::kBinary:
      return ExprVectorizable(expr->left()) && ExprVectorizable(expr->right());
    case ExprKind::kUnary:
      return ExprVectorizable(expr->operand());
    case ExprKind::kCall:
      return false;
  }
  return false;
}

ColumnEvaluator::ColumnEvaluator(ExprPtr expr) : expr_(std::move(expr)) {
  SP_CHECK(expr_ != nullptr);
  Flatten(expr_);
  results_.resize(nodes_.size(), nullptr);

  // Filter's fused shape: the root compares one operand against a non-null
  // literal on the unsigned ladder (kNull is not on it).
  const Node& root = nodes_.back();
  if (root.code != OpCode::kBinary || !IsComparison(root.bin_op)) return;
  auto unsigned_literal = [this](int idx) {
    const Node& n = nodes_[static_cast<size_t>(idx)];
    return n.code == OpCode::kLiteral && OnUnsignedLadder(n.literal.type());
  };
  auto literal = [this](int idx) {
    return nodes_[static_cast<size_t>(idx)].code == OpCode::kLiteral;
  };
  auto payload = [this](int idx) {
    return nodes_[static_cast<size_t>(idx)].literal.uint_value();
  };
  if (unsigned_literal(root.right) && !literal(root.left)) {
    fused_operand_ = root.left;
    fused_op_ = root.bin_op;
    fused_literal_ = payload(root.right);
  } else if (unsigned_literal(root.left) && !literal(root.right)) {
    fused_operand_ = root.right;
    fused_op_ = MirrorComparison(root.bin_op);
    fused_literal_ = payload(root.left);
  }
}

int ColumnEvaluator::Flatten(const ExprPtr& expr) {
  Node n;
  switch (expr->kind()) {
    case ExprKind::kColumnRef:
      SP_CHECK(expr->is_bound());
      n.code = OpCode::kColumn;
      n.column = static_cast<size_t>(expr->bound_index());
      break;
    case ExprKind::kLiteral:
      n.code = OpCode::kLiteral;
      n.literal = expr->literal();
      break;
    case ExprKind::kBinary:
      n.left = Flatten(expr->left());
      n.right = Flatten(expr->right());
      n.code = OpCode::kBinary;
      n.bin_op = expr->binary_op();
      break;
    case ExprKind::kUnary:
      n.left = Flatten(expr->operand());
      n.code = OpCode::kUnary;
      n.un_op = expr->unary_op();
      break;
    default:
      SP_CHECK(false);  // kCall is not vectorizable
  }
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

void ColumnEvaluator::EvalPrefix(size_t end, const ColumnBatch& batch,
                                 const SelectionVector& sel) {
  // nodes_ is in post-order, so children are always evaluated before their
  // parent; one linear pass computes the program. Literals are left unset
  // here and filled only if a generic kernel reads them (Operand).
  for (size_t i = 0; i < end; ++i) {
    results_[i] = nodes_[i].code == OpCode::kLiteral
                      ? nullptr
                      : EvalNode(i, batch, sel);
  }
}

const Column& ColumnEvaluator::Operand(int idx, const ColumnBatch& batch,
                                       const SelectionVector& sel) {
  const size_t i = static_cast<size_t>(idx);
  if (results_[i] != nullptr) return *results_[i];
  const Value& lit = nodes_[i].literal;
  Column& out = nodes_[i].scratch;
  out.nulls.clear();
  out.data.resize(batch.rows());
  out.type = lit.type();
  // A NULL literal's kNull type alone marks every cell null.
  if (!lit.is_null()) {
    const uint64_t payload = PackCellPayload(lit);
    for (uint32_t row : sel) out.data[row] = payload;
  }
  results_[i] = &out;
  return out;
}

const Column* ColumnEvaluator::Evaluate(const ColumnBatch& batch,
                                        const SelectionVector& sel) {
  EvalPrefix(nodes_.size(), batch, sel);
  return &Operand(static_cast<int>(nodes_.size()) - 1, batch, sel);
}

void ColumnEvaluator::Filter(const ColumnBatch& batch, SelectionVector* sel) {
  const Column* v = nullptr;
  if (fused_operand_ >= 0) {
    // Fused compare-and-compact: evaluate below the root, then shrink the
    // selection straight from the operand's payloads, no bool column.
    EvalPrefix(nodes_.size() - 1, batch, *sel);
    const Column& x = *results_[static_cast<size_t>(fused_operand_)];
    if (DenseUnsigned(x)) {
      CompactCompare(fused_op_, x.data.data(), fused_literal_, sel);
      return;
    }
    results_.back() = EvalNode(nodes_.size() - 1, batch, *sel);
    v = results_.back();
  } else {
    v = Evaluate(batch, *sel);
  }
  size_t kept = 0;
  for (uint32_t row : *sel) {
    if (CellTruthy(*v, row)) (*sel)[kept++] = row;
  }
  sel->resize(kept);
}

const Column* ColumnEvaluator::EvalNode(size_t idx, const ColumnBatch& batch,
                                        const SelectionVector& sel) {
  Node& n = nodes_[idx];
  if (n.code == OpCode::kColumn) {
    return &batch.col(n.column);
  }
  SP_DCHECK(n.code != OpCode::kLiteral);  // Operand() fills literals

  Column& out = n.scratch;
  out.nulls.clear();
  out.data.resize(batch.rows());

  if (n.code == OpCode::kUnary) {
    const Column& c = Operand(n.left, batch, sel);
    switch (n.un_op) {
      case UnaryOp::kNot:
        out.type = DataType::kBool;
        for (uint32_t row : sel) {
          out.data[row] = CellTruthy(c, row) ? 0 : 1;
        }
        return &out;
      case UnaryOp::kBitNot:
        out.type = DataType::kUint;
        for (uint32_t row : sel) {
          if (CellIsNull(c, row)) {
            out.SetNull(row, batch.rows());
            out.data[row] = 0;
            continue;
          }
          out.data[row] = ~CellAsU64(c.type, c.data[row]);
        }
        return &out;
      case UnaryOp::kNegate:
        if (c.type == DataType::kDouble) {
          out.type = DataType::kDouble;
          for (uint32_t row : sel) {
            if (CellIsNull(c, row)) {
              out.SetNull(row, batch.rows());
              out.data[row] = 0;
              continue;
            }
            out.data[row] = DoubleBits(-CellAsF64(c.type, c.data[row]));
          }
        } else {
          out.type = DataType::kInt;
          for (uint32_t row : sel) {
            if (CellIsNull(c, row)) {
              out.SetNull(row, batch.rows());
              out.data[row] = 0;
              continue;
            }
            out.data[row] =
                static_cast<uint64_t>(-CellAsI64(c.type, c.data[row]));
          }
        }
        return &out;
    }
    SP_CHECK(false);
  }

  // Binary node.
  const BinaryOp op = n.bin_op;
  if (!IsLogical(op) && !IsComparison(op)) {
    // Null-free unsigned bitwise/arithmetic: a tight per-op loop, with a
    // literal operand read as a scalar.
    auto dense = [this](int child, DenseOperand* d) {
      const Node& c = nodes_[static_cast<size_t>(child)];
      if (c.code == OpCode::kLiteral) {
        d->scalar = c.literal.uint_value();
        return OnUnsignedLadder(c.literal.type());
      }
      const Column& col = *results_[static_cast<size_t>(child)];
      d->data = col.data.data();
      return DenseUnsigned(col);
    };
    DenseOperand a, b;
    if (dense(n.left, &a) && dense(n.right, &b) &&
        (a.data != nullptr || b.data != nullptr) &&
        MapDenseUnsigned(op, sel, a, b, out.data.data())) {
      out.type = DataType::kUint;
      return &out;
    }
  }
  const Column& l = Operand(n.left, batch, sel);
  const Column& r = Operand(n.right, batch, sel);

  if (IsLogical(op)) {
    // Expr::Eval collapses NULL to false via Truthy(), so logical results
    // are never null and clause order cannot change a conjunction's value.
    out.type = DataType::kBool;
    if (op == BinaryOp::kAnd) {
      for (uint32_t row : sel) {
        out.data[row] = (CellTruthy(l, row) && CellTruthy(r, row)) ? 1 : 0;
      }
    } else {
      for (uint32_t row : sel) {
        out.data[row] = (CellTruthy(l, row) || CellTruthy(r, row)) ? 1 : 0;
      }
    }
    return &out;
  }

  if (IsComparison(op)) {
    // CompareValues's promotion ladder, keyed on the static column types
    // (string columns cannot arise; null cells short-circuit before the
    // ladder, exactly as EvalComparison nulls out on a null operand).
    out.type = DataType::kBool;
    const bool dbl =
        l.type == DataType::kDouble || r.type == DataType::kDouble;
    const bool sgn =
        !dbl && (l.type == DataType::kInt || r.type == DataType::kInt);
    for (uint32_t row : sel) {
      if (CellIsNull(l, row) || CellIsNull(r, row)) {
        out.SetNull(row, batch.rows());
        out.data[row] = 0;
        continue;
      }
      int c;
      if (dbl) {
        const double a = CellAsF64(l.type, l.data[row]);
        const double b = CellAsF64(r.type, r.data[row]);
        c = a < b ? -1 : (a > b ? 1 : 0);
      } else if (sgn) {
        const int64_t a = CellAsI64(l.type, l.data[row]);
        const int64_t b = CellAsI64(r.type, r.data[row]);
        c = a < b ? -1 : (a > b ? 1 : 0);
      } else {
        const uint64_t a = CellAsU64(l.type, l.data[row]);
        const uint64_t b = CellAsU64(r.type, r.data[row]);
        c = a < b ? -1 : (a > b ? 1 : 0);
      }
      bool v = false;
      switch (op) {
        case BinaryOp::kEq:
          v = c == 0;
          break;
        case BinaryOp::kNe:
          v = c != 0;
          break;
        case BinaryOp::kLt:
          v = c < 0;
          break;
        case BinaryOp::kLe:
          v = c <= 0;
          break;
        case BinaryOp::kGt:
          v = c > 0;
          break;
        case BinaryOp::kGe:
          v = c >= 0;
          break;
        default:
          SP_CHECK(false);
      }
      out.data[row] = v ? 1 : 0;
    }
    return &out;
  }

  if (IsBitwise(op)) {
    out.type = DataType::kUint;
    for (uint32_t row : sel) {
      if (CellIsNull(l, row) || CellIsNull(r, row)) {
        out.SetNull(row, batch.rows());
        out.data[row] = 0;
        continue;
      }
      const uint64_t a = CellAsU64(l.type, l.data[row]);
      const uint64_t b = CellAsU64(r.type, r.data[row]);
      uint64_t v = 0;
      switch (op) {
        case BinaryOp::kBitAnd:
          v = a & b;
          break;
        case BinaryOp::kBitOr:
          v = a | b;
          break;
        case BinaryOp::kBitXor:
          v = a ^ b;
          break;
        case BinaryOp::kShiftLeft:
          v = b >= 64 ? 0 : a << b;
          break;
        case BinaryOp::kShiftRight:
          v = b >= 64 ? 0 : a >> b;
          break;
        default:
          SP_CHECK(false);
      }
      out.data[row] = v;
    }
    return &out;
  }

  // Arithmetic: EvalArithmetic's promotion ladder on the static column
  // types. Null cells (and whole-column kNull operands) null the result;
  // the ladder then degenerates to unsigned but never runs for those rows.
  const bool dbl = l.type == DataType::kDouble || r.type == DataType::kDouble;
  const bool sgn =
      !dbl && (l.type == DataType::kInt || r.type == DataType::kInt);
  out.type = dbl ? DataType::kDouble
                 : (sgn ? DataType::kInt : DataType::kUint);
  for (uint32_t row : sel) {
    if (CellIsNull(l, row) || CellIsNull(r, row)) {
      out.SetNull(row, batch.rows());
      out.data[row] = 0;
      continue;
    }
    if (dbl) {
      const double a = CellAsF64(l.type, l.data[row]);
      const double b = CellAsF64(r.type, r.data[row]);
      double v = 0.0;
      switch (op) {
        case BinaryOp::kAdd:
          v = a + b;
          break;
        case BinaryOp::kSub:
          v = a - b;
          break;
        case BinaryOp::kMul:
          v = a * b;
          break;
        case BinaryOp::kDiv:
          if (b == 0.0) {
            out.SetNull(row, batch.rows());
            out.data[row] = 0;
            continue;
          }
          v = a / b;
          break;
        case BinaryOp::kMod:
          // Double modulo is NULL in the row interpreter.
          out.SetNull(row, batch.rows());
          out.data[row] = 0;
          continue;
        default:
          SP_CHECK(false);
      }
      out.data[row] = DoubleBits(v);
    } else if (sgn) {
      const int64_t a = CellAsI64(l.type, l.data[row]);
      const int64_t b = CellAsI64(r.type, r.data[row]);
      int64_t v = 0;
      switch (op) {
        case BinaryOp::kAdd:
          v = a + b;
          break;
        case BinaryOp::kSub:
          v = a - b;
          break;
        case BinaryOp::kMul:
          v = a * b;
          break;
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          if (b == 0) {
            out.SetNull(row, batch.rows());
            out.data[row] = 0;
            continue;
          }
          v = op == BinaryOp::kDiv ? a / b : a % b;
          break;
        default:
          SP_CHECK(false);
      }
      out.data[row] = static_cast<uint64_t>(v);
    } else {
      const uint64_t a = CellAsU64(l.type, l.data[row]);
      const uint64_t b = CellAsU64(r.type, r.data[row]);
      uint64_t v = 0;
      switch (op) {
        case BinaryOp::kAdd:
          v = a + b;
          break;
        case BinaryOp::kSub:
          v = a - b;
          break;
        case BinaryOp::kMul:
          v = a * b;
          break;
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          if (b == 0) {
            out.SetNull(row, batch.rows());
            out.data[row] = 0;
            continue;
          }
          v = op == BinaryOp::kDiv ? a / b : a % b;
          break;
        default:
          SP_CHECK(false);
      }
      out.data[row] = v;
    }
  }
  return &out;
}

std::vector<ColumnEvaluator> CompileOrderedClauses(const ExprPtr& where) {
  std::vector<ColumnEvaluator> out;
  if (where == nullptr) return out;
  // Heuristic weights order the kernels; the plan-time measured reorder
  // (optimizer/filter_order) feeds through as the tie-break order because
  // the sort is stable.
  for (const ExprPtr& clause : OrderClauses(where, {})) {
    out.emplace_back(clause);
  }
  return out;
}

}  // namespace streampart
