#include "cbn/profile.h"

#include <algorithm>

#include "common/string_util.h"

namespace cosmos {

void Profile::AddStream(const std::string& stream,
                        std::vector<std::string> attributes) {
  streams_.insert(stream);
  auto it = projections_.find(stream);
  if (it == projections_.end()) {
    projections_.emplace(stream, std::move(attributes));
  } else if (!attributes.empty()) {
    if (it->second.empty()) {
      // Already "all attributes"; keep it (wider).
    } else {
      for (auto& a : attributes) {
        if (std::find(it->second.begin(), it->second.end(), a) ==
            it->second.end()) {
          it->second.push_back(std::move(a));
        }
      }
    }
  }
}

void Profile::AddFilter(Filter filter) {
  if (streams_.count(filter.stream()) == 0) {
    AddStream(filter.stream());
  }
  filters_by_stream_[filter.stream()].push_back(filters_.size());
  filters_.push_back(std::move(filter));
}

const std::vector<std::string>& Profile::ProjectionOf(
    const std::string& stream) const {
  static const std::vector<std::string> kAll;
  auto it = projections_.find(stream);
  if (it == projections_.end()) return kAll;
  return it->second;
}

std::vector<const Filter*> Profile::FiltersOf(
    const std::string& stream) const {
  std::vector<const Filter*> out;
  auto it = filters_by_stream_.find(stream);
  if (it == filters_by_stream_.end()) return out;
  out.reserve(it->second.size());
  for (size_t i : it->second) out.push_back(&filters_[i]);
  return out;
}

Profile Profile::StreamPart(const std::string& stream) const {
  Profile part;
  if (!WantsStream(stream)) return part;
  part.AddStream(stream, ProjectionOf(stream));
  for (const Filter* f : FiltersOf(stream)) part.AddFilter(*f);
  return part;
}

bool Profile::Covers(const Datagram& d) const {
  if (streams_.count(d.stream) == 0) return false;
  auto it = filters_by_stream_.find(d.stream);
  // A stream subscribed without filters is requested unconditionally.
  if (it == filters_by_stream_.end()) return true;
  for (size_t i : it->second) {
    if (filters_[i].Covers(d)) return true;
  }
  return false;
}

std::vector<std::string> Profile::RequiredAttributes(
    const std::string& stream) const {
  const std::vector<std::string>& proj = ProjectionOf(stream);
  if (proj.empty()) return {};  // all attributes
  std::vector<std::string> out = proj;
  auto it = filters_by_stream_.find(stream);
  if (it == filters_by_stream_.end()) return out;
  for (size_t i : it->second) {
    for (auto& a : filters_[i].ReferencedAttributes()) {
      if (std::find(out.begin(), out.end(), a) == out.end()) {
        out.push_back(std::move(a));
      }
    }
  }
  return out;
}

std::string Profile::ToString() const {
  std::string out = "S={";
  out += StrJoin(std::vector<std::string>(streams_.begin(), streams_.end()),
                 ", ");
  out += "} P={";
  std::vector<std::string> projs;
  for (const auto& [stream, attrs] : projections_) {
    projs.push_back(stream + ":" +
                    (attrs.empty() ? "*" : "[" + StrJoin(attrs, ",") + "]"));
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
