#pragma once

/// \file value.h
/// \brief Value: a dynamically typed scalar flowing through the engine.
///
/// A Value is a 16-byte tagged union: a one-byte type tag and an 8-byte
/// payload. Integral and double payloads live inline; a string lives behind
/// an owning pointer in the payload, deep-copied with the value. Only sketch
/// summary blobs and string literals are strings, so packet tuples never
/// touch the heap per cell and copying one is a tag test plus a word copy.

#include <cstdint>
#include <string>
#include <utility>

#include "common/hash.h"
#include "types/data_type.h"

namespace streampart {

/// \brief A dynamically typed scalar.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : type_(DataType::kNull), u64_(0) {}

  // Copies deep-copy a string payload; a moved-from value is NULL.
  Value(const Value& other) : type_(other.type_), u64_(other.u64_) {
    if (type_ == DataType::kString) [[unlikely]] {
      str_ = new std::string(*other.str_);
    }
  }
  Value(Value&& other) noexcept : type_(other.type_), u64_(other.u64_) {
    other.type_ = DataType::kNull;
    other.u64_ = 0;
  }
  Value& operator=(const Value& other) {
    const bool strings =
        type_ == DataType::kString || other.type_ == DataType::kString;
    if (strings) [[unlikely]] {
      AssignSlow(other);
      return *this;
    }
    type_ = other.type_;
    u64_ = other.u64_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this == &other) return *this;
    if (type_ == DataType::kString) [[unlikely]] delete str_;
    type_ = other.type_;
    u64_ = other.u64_;
    other.type_ = DataType::kNull;
    other.u64_ = 0;
    return *this;
  }
  ~Value() {
    if (type_ == DataType::kString) [[unlikely]] delete str_;
  }

  static Value Null() { return Value(); }
  static Value Uint(uint64_t v) { return Value(DataType::kUint, v); }
  static Value Int(int64_t v) {
    Value out(DataType::kInt, 0);
    out.i64_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out(DataType::kDouble, 0);
    out.f64_ = v;
    return out;
  }
  static Value Bool(bool v) {
    return Value(DataType::kBool, v ? 1 : 0);
  }
  static Value Ip(uint32_t v) { return Value(DataType::kIp, v); }
  static Value String(std::string v) {
    Value out(DataType::kString, 0);
    out.str_ = new std::string(std::move(v));
    return out;
  }

  DataType type() const { return type_; }
  bool is_null() const { return type_ == DataType::kNull; }

  /// \brief Raw unsigned payload. Valid for kUint, kIp, kBool.
  uint64_t uint_value() const { return u64_; }
  int64_t int_value() const { return i64_; }
  double double_value() const { return f64_; }
  bool bool_value() const { return u64_ != 0; }
  /// \brief The string payload; "" for a non-string value.
  const std::string& string_value() const {
    return type_ == DataType::kString ? *str_ : EmptyString();
  }

  // The numeric wideners are inline: aggregate accumulators call them once
  // per input tuple, where an out-of-line call costs more than the switch.
  /// \brief Numeric payload widened to int64 (kUint/kIp/kBool/kInt).
  int64_t AsInt64() const {
    switch (type_) {
      case DataType::kInt:
        return i64_;
      case DataType::kUint:
      case DataType::kIp:
      case DataType::kBool:
        return static_cast<int64_t>(u64_);
      case DataType::kDouble:
        return static_cast<int64_t>(f64_);
      default:
        return 0;
    }
  }
  /// \brief Numeric payload widened to uint64.
  uint64_t AsUint64() const {
    switch (type_) {
      case DataType::kUint:
      case DataType::kIp:
      case DataType::kBool:
        return u64_;
      case DataType::kInt:
        return static_cast<uint64_t>(i64_);
      case DataType::kDouble:
        return static_cast<uint64_t>(f64_);
      default:
        return 0;
    }
  }
  /// \brief Numeric payload widened to double.
  double AsDouble() const {
    switch (type_) {
      case DataType::kDouble:
        return f64_;
      case DataType::kInt:
        return static_cast<double>(i64_);
      case DataType::kUint:
      case DataType::kIp:
      case DataType::kBool:
        return static_cast<double>(u64_);
      default:
        return 0.0;
    }
  }

  /// \brief Truthiness for predicate evaluation: NULL and false are false,
  /// non-zero numerics and non-empty strings are true.
  bool Truthy() const;

  /// \brief Structural equality: same type and same payload. NULL == NULL
  /// (multiset comparisons in tests rely on this; SQL ternary logic is
  /// handled at the expression-evaluation layer).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// \brief Total order over values: first by type tag, then payload.
  /// Used for deterministic sorting of result sets in tests/benches.
  bool operator<(const Value& other) const;

  /// \brief 64-bit hash consistent with operator==.
  uint64_t Hash() const;

  /// \brief Human-readable rendering ("10.1.2.3" for IPs, "NULL", ...).
  std::string ToString() const;

  /// \brief Serialized size in bytes under the wire-size model.
  size_t WireSize() const;

 private:
  Value(DataType type, uint64_t payload) : type_(type), u64_(payload) {}

  /// Copy-assignment where either side holds a string (out of line: the
  /// packet hot path never takes it).
  void AssignSlow(const Value& other);
  static const std::string& EmptyString();

  DataType type_;
  union {
    uint64_t u64_;
    int64_t i64_;
    double f64_;
    std::string* str_;  // kString only; owned
  };
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte tagged union");

}  // namespace streampart
