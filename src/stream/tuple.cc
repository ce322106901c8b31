#include "stream/tuple.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace cosmos {

Tuple::Tuple(std::shared_ptr<const Schema> schema, std::vector<Value> values,
             Timestamp timestamp)
    : schema_(std::move(schema)),
      values_(std::move(values)),
      timestamp_(timestamp) {
  COSMOS_CHECK(schema_ != nullptr);
  COSMOS_CHECK_EQ(values_.size(), schema_->num_attributes())
      << "tuple width does not match schema " << schema_->stream_name();
}

Result<Value> Tuple::GetAttribute(const std::string& name) const {
  if (schema_ == nullptr) {
    return Status::FailedPrecondition("tuple has no schema");
  }
  auto idx = schema_->IndexOf(name);
  if (!idx.has_value()) {
    return Status::NotFound(StrFormat("attribute '%s' not in tuple of '%s'",
                                      name.c_str(),
                                      schema_->stream_name().c_str()));
  }
  return values_[*idx];
}

size_t Tuple::SerializedSize() const {
  size_t total = 8;  // timestamp
  for (const auto& v : values_) total += v.SerializedSize();
  return total;
}

Tuple Tuple::Project(const std::vector<size_t>& indices,
                     std::shared_ptr<const Schema> projected_schema) const {
  std::vector<Value> out;
  out.reserve(indices.size());
  for (size_t i : indices) {
    COSMOS_CHECK_LT(i, values_.size());
    out.push_back(values_[i]);
  }
  return Tuple(std::move(projected_schema), std::move(out), timestamp_);
}

std::string Tuple::ToString() const {
  std::string out = schema_ ? schema_->stream_name() : "<no schema>";
  out += "{";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    if (schema_) {
      out += schema_->attribute(i).name;
      out += "=";
    }
    out += values_[i].ToString();
  }
  out += StrFormat("}@%lld", static_cast<long long>(timestamp_));
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  if (timestamp_ != other.timestamp_) return false;
  if (values_ != other.values_) return false;
  if ((schema_ == nullptr) != (other.schema_ == nullptr)) return false;
  if (schema_ && !(*schema_ == *other.schema_)) return false;
  return true;
}

std::shared_ptr<const Schema> MakeJoinedSchema(
    const std::vector<std::pair<const Schema*, std::string>>& parts,
    const std::string& name) {
  std::vector<AttributeDef> attrs;
  for (const auto& [schema, alias] : parts) {
    for (const auto& a : schema->attributes()) {
      AttributeDef d = a;
      d.name = alias + "." + a.name;
      attrs.push_back(std::move(d));
    }
  }
  return std::make_shared<Schema>(name, std::move(attrs));
}

}  // namespace cosmos
