#include "cbn/profile.h"

#include <algorithm>

#include "common/string_util.h"

namespace cosmos {

void Profile::AddStream(const std::string& stream,
                        std::vector<std::string> attributes) {
  streams_.insert(stream);
  auto [it, inserted] = records_.try_emplace(stream);
  StreamRecord& record = it->second;
  if (inserted) {
    // A new stream has no filters yet: it requires its projection.
    record.required = attributes;
    record.projection = std::move(attributes);
    return;
  }
  // Widen the projection; "all attributes" is already the widest.
  if (record.projection.empty()) return;
  if (attributes.empty()) {
    // A list widened to all attributes retains everything: no list leads
    // the required list any more.
    record.projection.clear();
    record.required.clear();
    return;
  }
  bool widened = false;
  for (auto& a : attributes) {
    if (std::find(record.projection.begin(), record.projection.end(), a) ==
        record.projection.end()) {
      record.projection.push_back(std::move(a));
      widened = true;
    }
  }
  if (!widened) return;
  // The projection leads the required list, so rebuild it.
  record.required = record.projection;
  for (size_t i : record.filters) {
    RequireFilterAttributes(filters_[i], &record);
  }
}

void Profile::AddFilter(Filter filter) {
  if (streams_.count(filter.stream()) == 0) {
    AddStream(filter.stream());
  }
  StreamRecord& record = records_.find(filter.stream())->second;
  record.filters.push_back(filters_.size());
  RequireFilterAttributes(filter, &record);
  filters_.push_back(std::move(filter));
}

void Profile::RequireFilterAttributes(const Filter& filter,
                                      StreamRecord* record) {
  if (record->projection.empty()) return;  // all attributes
  std::vector<std::string>& required = record->required;
  for (auto& a : filter.ReferencedAttributes()) {
    if (std::find(required.begin(), required.end(), a) == required.end()) {
      required.push_back(std::move(a));
    }
  }
}

const Profile::StreamRecord* Profile::RecordOf(
    const std::string& stream) const {
  auto it = records_.find(stream);
  return it == records_.end() ? nullptr : &it->second;
}

namespace {

// The record of a stream the profile does not request: all attributes, no
// filters.
const Profile::StreamRecord& Unrequested() {
  static const Profile::StreamRecord kNone;
  return kNone;
}

}  // namespace

const std::vector<std::string>& Profile::ProjectionOf(
    const std::string& stream) const {
  const StreamRecord* record = RecordOf(stream);
  return (record == nullptr ? Unrequested() : *record).projection;
}

const std::vector<size_t>& Profile::FilterIndicesOf(
    const std::string& stream) const {
  const StreamRecord* record = RecordOf(stream);
  return (record == nullptr ? Unrequested() : *record).filters;
}

const std::vector<std::string>& Profile::RequiredAttributes(
    const std::string& stream) const {
  const StreamRecord* record = RecordOf(stream);
  return (record == nullptr ? Unrequested() : *record).required;
}

Profile Profile::StreamPart(const std::string& stream) const {
  Profile part;
  const StreamRecord* record = RecordOf(stream);
  if (record == nullptr) return part;
  part.AddStream(stream, record->projection);
  for (size_t i : record->filters) part.AddFilter(filters_[i]);
  return part;
}

bool Profile::Covers(const Datagram& d) const {
  const StreamRecord* record = RecordOf(d.stream);
  if (record == nullptr) return false;
  // A stream subscribed without filters is requested unconditionally.
  if (record->filters.empty()) return true;
  for (size_t i : record->filters) {
    if (filters_[i].Covers(d)) return true;
  }
  return false;
}

bool Profile::operator==(const Profile& other) const {
  if (streams_ != other.streams_ || filters_ != other.filters_) return false;
  // Equal filters index equally and derive equal required lists, so only
  // the projections are left to compare.
  for (const auto& [stream, record] : records_) {
    if (record.projection != other.records_.at(stream).projection) {
      return false;
    }
  }
  return true;
}

std::string Profile::ToString() const {
  std::string out = "S={";
  out += StrJoin(std::vector<std::string>(streams_.begin(), streams_.end()),
                 ", ");
  out += "} P={";
  std::vector<std::string> projs;
  for (const auto& [stream, record] : records_) {
    // Appended piecewise: GCC 12's -Wrestrict misfires on the chained
    // operator+ form at -O3.
    const std::vector<std::string>& attrs = record.projection;
    std::string proj = stream;
    proj += ':';
    if (attrs.empty()) {
      proj += '*';
    } else {
      proj += '[';
      proj += StrJoin(attrs, ",");
      proj += ']';
    }
    projs.push_back(std::move(proj));
  }
  out += StrJoin(projs, "; ");
  out += "} F={";
  std::vector<std::string> fs;
  for (const auto& f : filters_) fs.push_back(f.ToString());
  out += StrJoin(fs, " | ");
  out += "}";
  return out;
}

}  // namespace cosmos
