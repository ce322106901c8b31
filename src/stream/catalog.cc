#include "stream/catalog.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace cosmos {

Status Catalog::RegisterStream(std::shared_ptr<const Schema> schema,
                               double rate_tuples_per_sec,
                               int publisher_node) {
  if (schema == nullptr) {
    return Status::InvalidArgument("null schema");
  }
  const std::string& name = schema->stream_name();
  if (streams_.count(name) > 0) {
    return Status::AlreadyExists(
        StrFormat("stream '%s' already registered", name.c_str()));
  }
  StreamInfo info;
  info.schema = std::move(schema);
  info.rate_tuples_per_sec = rate_tuples_per_sec;
  info.publisher_node = publisher_node;
  streams_.emplace(name, std::move(info));
  return Status::OK();
}

Status Catalog::UpdateRate(const std::string& stream,
                           double rate_tuples_per_sec) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound(StrFormat("stream '%s'", stream.c_str()));
  }
  it->second.rate_tuples_per_sec = rate_tuples_per_sec;
  return Status::OK();
}

bool Catalog::HasStream(const std::string& name) const {
  return streams_.count(name) > 0;
}

Result<StreamInfo> Catalog::Lookup(const std::string& name) const {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound(StrFormat("stream '%s'", name.c_str()));
  }
  return it->second;
}

Result<std::shared_ptr<const Schema>> Catalog::LookupSchema(
    const std::string& name) const {
  COSMOS_ASSIGN_OR_RETURN(StreamInfo info, Lookup(name));
  return info.schema;
}

std::vector<std::string> Catalog::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, info] : streams_) names.push_back(name);
  return names;
}

}  // namespace cosmos
