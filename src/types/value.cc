#include "types/value.h"

#include <cmath>

#include "common/logging.h"
#include "common/strings.h"

namespace streampart {

void Value::AssignSlow(const Value& other) {
  if (this == &other) return;
  if (type_ == DataType::kString && other.type_ == DataType::kString) {
    *str_ = *other.str_;  // reuses this value's buffer
    return;
  }
  // Build the new payload before releasing the old one, so a throwing
  // string copy leaves this value untouched.
  std::string* copy = other.type_ == DataType::kString
                          ? new std::string(*other.str_)
                          : nullptr;
  if (type_ == DataType::kString) delete str_;
  type_ = other.type_;
  if (copy != nullptr) {
    str_ = copy;
  } else {
    u64_ = other.u64_;
  }
}

const std::string& Value::EmptyString() {
  static const std::string kEmpty;
  return kEmpty;
}

bool Value::Truthy() const {
  switch (type_) {
    case DataType::kNull:
      return false;
    case DataType::kBool:
    case DataType::kUint:
    case DataType::kIp:
      return u64_ != 0;
    case DataType::kInt:
      return i64_ != 0;
    case DataType::kDouble:
      return f64_ != 0.0;
    case DataType::kString:
      return !str_->empty();
  }
  return false;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case DataType::kNull:
      return true;
    case DataType::kString:
      return *str_ == *other.str_;
    case DataType::kDouble:
      return f64_ == other.f64_;
    default:
      return u64_ == other.u64_;
  }
}

bool Value::operator<(const Value& other) const {
  if (type_ != other.type_) return type_ < other.type_;
  switch (type_) {
    case DataType::kNull:
      return false;
    case DataType::kString:
      return *str_ < *other.str_;
    case DataType::kDouble:
      return f64_ < other.f64_;
    case DataType::kInt:
      return i64_ < other.i64_;
    default:
      return u64_ < other.u64_;
  }
}

uint64_t Value::Hash() const {
  uint64_t seed = Mix64(static_cast<uint64_t>(type_));
  switch (type_) {
    case DataType::kNull:
      return seed;
    case DataType::kString:
      return HashCombine(seed, HashBytes(*str_));
    case DataType::kDouble: {
      // Normalize -0.0 to +0.0 so equal doubles hash equal.
      double d = (f64_ == 0.0) ? 0.0 : f64_;
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return HashCombine(seed, bits);
    }
    default:
      return HashCombine(seed, u64_);
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case DataType::kNull:
      return "NULL";
    case DataType::kUint:
      return std::to_string(u64_);
    case DataType::kInt:
      return std::to_string(i64_);
    case DataType::kDouble: {
      std::string s = std::to_string(f64_);
      return s;
    }
    case DataType::kBool:
      return u64_ ? "true" : "false";
    case DataType::kString:
      return "'" + *str_ + "'";
    case DataType::kIp:
      return FormatIpv4(static_cast<uint32_t>(u64_));
  }
  return "?";
}

size_t Value::WireSize() const {
  if (type_ == DataType::kString) return str_->size() + 4;
  return DataTypeWireSize(type_);
}

}  // namespace streampart
