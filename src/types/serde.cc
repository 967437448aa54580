#include "types/serde.h"

#include <cstring>

namespace streampart {

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Status GetVarint(std::string_view data, size_t* offset, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (*offset >= data.size()) {
      return Status::InvalidArgument("truncated varint");
    }
    uint8_t byte = static_cast<uint8_t>(data[(*offset)++]);
    if (shift >= 63 && byte > 1) {
      return Status::InvalidArgument("varint overflow");
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = v;
  return Status::OK();
}

namespace {

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// ZigZag for signed payloads.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kUint:
    case DataType::kIp:
    case DataType::kBool:
      PutVarint(v.uint_value(), out);
      break;
    case DataType::kInt:
      PutVarint(ZigZag(v.int_value()), out);
      break;
    case DataType::kDouble: {
      double d = v.double_value();
      char buf[sizeof(double)];
      std::memcpy(buf, &d, sizeof(double));
      out->append(buf, sizeof(double));
      break;
    }
    case DataType::kString:
      PutVarint(v.string_value().size(), out);
      out->append(v.string_value());
      break;
  }
}

size_t EncodedValueSize(const Value& v) {
  size_t n = 1;  // tag
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kUint:
    case DataType::kIp:
    case DataType::kBool:
      n += VarintSize(v.uint_value());
      break;
    case DataType::kInt:
      n += VarintSize(ZigZag(v.int_value()));
      break;
    case DataType::kDouble:
      n += sizeof(double);
      break;
    case DataType::kString:
      n += VarintSize(v.string_value().size()) + v.string_value().size();
      break;
  }
  return n;
}

Status DecodeValue(std::string_view data, size_t* offset, Value* out) {
  if (*offset >= data.size()) {
    return Status::InvalidArgument("truncated value");
  }
  DataType type = static_cast<DataType>(data[(*offset)++]);
  switch (type) {
    case DataType::kNull:
      *out = Value::Null();
      break;
    case DataType::kUint: {
      uint64_t v;
      SP_RETURN_NOT_OK(GetVarint(data, offset, &v));
      *out = Value::Uint(v);
      break;
    }
    case DataType::kIp: {
      uint64_t v;
      SP_RETURN_NOT_OK(GetVarint(data, offset, &v));
      *out = Value::Ip(static_cast<uint32_t>(v));
      break;
    }
    case DataType::kBool: {
      uint64_t v;
      SP_RETURN_NOT_OK(GetVarint(data, offset, &v));
      *out = Value::Bool(v != 0);
      break;
    }
    case DataType::kInt: {
      uint64_t v;
      SP_RETURN_NOT_OK(GetVarint(data, offset, &v));
      *out = Value::Int(UnZigZag(v));
      break;
    }
    case DataType::kDouble: {
      if (*offset + sizeof(double) > data.size()) {
        return Status::InvalidArgument("truncated double");
      }
      double d;
      std::memcpy(&d, data.data() + *offset, sizeof(double));
      *offset += sizeof(double);
      *out = Value::Double(d);
      break;
    }
    case DataType::kString: {
      uint64_t len;
      SP_RETURN_NOT_OK(GetVarint(data, offset, &len));
      // Compared against what remains: `*offset + len` wraps for lengths
      // near 2^64 and would pass.
      if (len > data.size() - *offset) {
        return Status::InvalidArgument("truncated string of length ", len);
      }
      *out = Value::String(std::string(data.substr(*offset, len)));
      *offset += len;
      break;
    }
    default:
      return Status::InvalidArgument("unknown type tag ",
                                     static_cast<int>(type));
  }
  return Status::OK();
}

void EncodeTuple(const Tuple& tuple, std::string* out) {
  PutVarint(tuple.size(), out);
  for (const Value& v : tuple.values()) EncodeValue(v, out);
}

size_t EncodedTupleSize(const Tuple& tuple) {
  size_t n = VarintSize(tuple.size());
  for (const Value& v : tuple.values()) n += EncodedValueSize(v);
  return n;
}

Status DecodeTuple(std::string_view data, size_t* offset, Tuple* out) {
  uint64_t count = 0;
  SP_RETURN_NOT_OK(GetVarint(data, offset, &count));
  if (count > data.size()) {
    return Status::InvalidArgument("implausible field count ", count);
  }
  std::vector<Value> values;
  values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Value v;
    Status st = DecodeValue(data, offset, &v);
    if (!st.ok()) {
      return Status::InvalidArgument("field ", i, ": ", st.message());
    }
    values.push_back(std::move(v));
  }
  *out = Tuple(std::move(values));
  return Status::OK();
}

Result<Tuple> RoundTripTuple(const Tuple& tuple) {
  std::string buffer;
  EncodeTuple(tuple, &buffer);
  size_t offset = 0;
  Tuple out;
  SP_RETURN_NOT_OK(DecodeTuple(buffer, &offset, &out));
  if (offset != buffer.size()) {
    return Status::Internal("decode consumed ", offset, " of ",
                            buffer.size(), " bytes");
  }
  return out;
}

void EncodeBatch(TupleSpan batch, std::string* out) {
  for (const Tuple& t : batch) EncodeTuple(t, out);
}

Result<TupleBatch> DecodeBatch(std::string_view data) {
  TupleBatch out;
  size_t offset = 0;
  while (offset < data.size()) {
    Tuple t;
    SP_RETURN_NOT_OK(DecodeTuple(data, &offset, &t));
    out.push_back(std::move(t));
  }
  return out;
}

Result<TupleBatch> RoundTripBatch(TupleSpan batch, size_t* encoded_bytes) {
  std::string buffer;
  EncodeBatch(batch, &buffer);
  if (encoded_bytes != nullptr) *encoded_bytes = buffer.size();
  SP_ASSIGN_OR_RETURN(TupleBatch out, DecodeBatch(buffer));
  if (out.size() != batch.size()) {
    return Status::Internal("batch round trip decoded ", out.size(), " of ",
                            batch.size(), " tuples");
  }
  return out;
}

}  // namespace streampart
