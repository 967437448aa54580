#pragma once

/// \file column_batch.h
/// \brief Column-major batches with selection vectors — the columnar
/// execution path.
///
/// A ColumnBatch holds the same rows as a TupleSpan, transposed: one
/// fixed-width vector of raw 8-byte payloads per attribute, plus an optional
/// per-row null flag. Only fixed-width types (everything but kString) are
/// representable; ColumnBatch::FromTuples refuses string cells and
/// mixed-type columns, and callers fall back to the row-batch path.
///
/// The selection-vector contract: a columnar delivery is a (batch, sel)
/// pair, where `sel` lists the *live* row indexes of the batch in ascending
/// order. Operators never compact the batch — filters shrink the selection
/// vector, and projections alias unmodified columns by shared_ptr — so one
/// physical batch flows through a filter→project→aggregate chain with zero
/// row materialization. Both are borrowed views, valid only for the duration
/// of the PushColumns call (exactly like TupleSpan in PushBatch).
///
/// Payload encoding matches the packed group-key slots of ops.cc
/// (PackValueTo): kUint/kIp/kBool store the unsigned payload, kInt the
/// two's-complement bits, kDouble the IEEE-754 bits. A null cell stores 0
/// with its null flag set. This bit-compatibility is what lets the columnar
/// aggregate kernel memcpy key payloads straight into packed keys.
///
/// ColumnEvaluator evaluates a bound scalar expression over the selected
/// rows of a batch. It must mirror Expr::Eval *exactly* — same promotion
/// ladder, same NULL propagation, same division-by-zero behaviour — because
/// tests/columnar_exec_test.cc holds the three execution paths to byte-
/// identical ledgers. Calls and string literals are not vectorizable;
/// operators detect that at construction and keep the row path.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "expr/expr.h"
#include "types/tuple.h"
#include "types/value.h"

namespace streampart {

/// \brief Execution-path selector: the per-tuple reference path, the
/// row-batch path (PR 1), or the columnar path. The per-tuple and row-batch
/// paths are kept intact as differential oracles for the columnar kernels.
enum class ExecMode : uint8_t {
  kTuple,
  kBatch,
  kColumnar,
};

const char* ExecModeToString(ExecMode mode);
/// \brief Parses "tuple" / "batch" / "columnar"; false on anything else.
bool ParseExecMode(std::string_view text, ExecMode* out);

/// \brief Ascending live-row indexes into a ColumnBatch.
using SelectionVector = std::vector<uint32_t>;

/// \brief Rebuilds \p sel as the identity selection [0, n).
inline void IdentitySelection(size_t n, SelectionVector* sel) {
  sel->resize(n);
  for (size_t i = 0; i < n; ++i) (*sel)[i] = static_cast<uint32_t>(i);
}

/// \brief Materializes one cell back into a tagged Value. Inverse of the
/// payload encoding above (and of ops.cc's PackValueTo payload bytes).
inline Value UnpackCell(DataType type, uint64_t payload) {
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

/// \brief Raw 8-byte payload of a non-string Value (see the encoding note
/// in the file comment). Inverse of UnpackCell for non-null values.
inline uint64_t PackCellPayload(const Value& v) {
  switch (v.type()) {
    case DataType::kUint:
    case DataType::kIp:
    case DataType::kBool:
      return v.uint_value();
    case DataType::kInt:
      return static_cast<uint64_t>(v.int_value());
    case DataType::kDouble: {
      uint64_t bits;
      double d = v.double_value();
      std::memcpy(&bits, &d, sizeof(double));
      return bits;
    }
    default:
      return 0;  // kNull
  }
}

/// \brief One fixed-width attribute vector.
struct Column {
  DataType type = DataType::kNull;
  /// Raw 8-byte payloads, one per row of the owning batch.
  std::vector<uint64_t> data;
  /// Per-row null flags; empty means "no nulls in this column".
  std::vector<uint8_t> nulls;

  bool has_nulls() const { return !nulls.empty(); }
  bool is_null(size_t row) const { return !nulls.empty() && nulls[row] != 0; }
  Value ValueAt(size_t row) const {
    return is_null(row) ? Value::Null() : UnpackCell(type, data[row]);
  }
  /// \brief Marks \p row null (allocating the flag vector on first use).
  void SetNull(size_t row, size_t batch_rows) {
    if (nulls.empty()) nulls.assign(batch_rows, 0);
    nulls[row] = 1;
  }
};

using ColumnPtr = std::shared_ptr<Column>;

/// \brief True when the cell reads as NULL: either flagged, or the whole
/// column is typeless (all-null). Kernels must use this rather than
/// Column::is_null so all-null columns behave like NULL operands.
inline bool CellIsNull(const Column& c, size_t row) {
  return c.type == DataType::kNull || c.is_null(row);
}

/// \brief A column-major batch. Columns are shared by pointer so that
/// projections alias their inputs instead of copying payload vectors.
class ColumnBatch {
 public:
  size_t rows() const { return rows_; }
  size_t num_columns() const { return cols_.size(); }
  const Column& col(size_t i) const { return *cols_[i]; }
  const ColumnPtr& col_ptr(size_t i) const { return cols_[i]; }

  void Clear() {
    rows_ = 0;
    cols_.clear();
  }
  void SetRows(size_t rows) { rows_ = rows; }
  void AddColumn(ColumnPtr c) { cols_.push_back(std::move(c)); }

  /// \brief Transposes \p batch into this ColumnBatch, reusing column
  /// storage across calls. Returns false — leaving the batch cleared — when
  /// the rows are not columnar-representable: a string cell anywhere, or a
  /// column mixing two non-null types. Column types are inferred from the
  /// first non-null cell (an all-null column has type kNull).
  bool FromTuples(TupleSpan batch);

  /// \brief Materializes row \p row into \p out (slots overwritten in
  /// place; \p out is a reusable scratch tuple).
  void MaterializeRow(size_t row, Tuple* out) const;

  /// \brief Wire-model size of row \p row — equals the WireSize() of the
  /// materialized tuple, so columnar bytes_out accounting matches the row
  /// paths exactly.
  size_t RowWireBytes(size_t row) const;
  /// \brief Row wire size assuming no null cells (the common case);
  /// constant across rows.
  size_t FixedRowWireBytes() const;
  /// \brief True when any column carries a null flag vector.
  bool AnyNulls() const;

 private:
  size_t rows_ = 0;
  std::vector<ColumnPtr> cols_;
};

/// \brief Encodes the selected rows in the standard row wire format —
/// byte-identical to serde's EncodeBatch over the materialized rows, so
/// cross-host transfer accounting is independent of the execution mode.
void EncodeColumns(const ColumnBatch& batch, const SelectionVector& sel,
                   std::string* out);

/// \brief True when a bound expression can run on the columnar path:
/// column references, non-string literals, and binary/unary operators.
/// Calls are not vectorizable; string *columns* never arise because
/// FromTuples refuses them.
bool ExprVectorizable(const ExprPtr& expr);

/// \brief Compiled columnar evaluator for one bound expression.
///
/// The tree is flattened to a post-order program at construction, with one
/// reusable scratch column per interior node, so steady-state evaluation
/// allocates nothing. Evaluate() computes cells for the selected rows only;
/// cells outside the selection are unspecified.
class ColumnEvaluator {
 public:
  /// \pre ExprVectorizable(expr).
  explicit ColumnEvaluator(ExprPtr expr);

  const ExprPtr& expr() const { return expr_; }

  /// \brief Evaluates over the selected rows; the returned column is either
  /// a batch column (bare column refs) or internal scratch, valid until the
  /// next Evaluate() call.
  const Column* Evaluate(const ColumnBatch& batch, const SelectionVector& sel);

  /// \brief Filter kernel: shrinks \p sel in place to the rows whose value
  /// is truthy (NULL collapses to false, matching Eval().Truthy()).
  void Filter(const ColumnBatch& batch, SelectionVector* sel);

 private:
  enum class OpCode : uint8_t { kColumn, kLiteral, kBinary, kUnary };
  struct Node {
    OpCode code;
    BinaryOp bin_op = BinaryOp::kAdd;
    UnaryOp un_op = UnaryOp::kNegate;
    size_t column = 0;     // kColumn: bound input column index
    Value literal;         // kLiteral
    int left = -1;         // kBinary/kUnary: node index of child
    int right = -1;        // kBinary: node index of right child
    Column scratch;        // interior/literal result storage
  };

  int Flatten(const ExprPtr& expr);
  /// Evaluates nodes [0, end) into results_, leaving literals unset.
  void EvalPrefix(size_t end, const ColumnBatch& batch,
                  const SelectionVector& sel);
  /// results_[idx], filling a literal's scratch column on first use.
  const Column& Operand(int idx, const ColumnBatch& batch,
                        const SelectionVector& sel);
  const Column* EvalNode(size_t idx, const ColumnBatch& batch,
                         const SelectionVector& sel);

  ExprPtr expr_;
  std::vector<Node> nodes_;  // post-order; the last node is the root
  std::vector<const Column*> results_;  // per-node result, one Evaluate pass
  /// Filter's fused compare-and-compact: when the root compares node
  /// fused_operand_ against a non-null unsigned literal, Filter keeps the
  /// rows where `operand fused_op_ fused_literal_` straight from the
  /// operand's payloads whenever that column is null-free and unsigned.
  int fused_operand_ = -1;
  BinaryOp fused_op_ = BinaryOp::kEq;
  uint64_t fused_literal_ = 0;
};

/// \brief Splits a bound WHERE into cost-ordered columnar clause kernels
/// (see optimizer/filter_order.h for the weighting rule). Returns an empty
/// vector when \p where is null. \pre every conjunct is vectorizable.
std::vector<ColumnEvaluator> CompileOrderedClauses(const ExprPtr& where);

}  // namespace streampart
