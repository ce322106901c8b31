#ifndef COSMOS_CBN_PROFILE_H_
#define COSMOS_CBN_PROFILE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cbn/filter.h"

namespace cosmos {

using ProfileId = uint64_t;

// A data-interest profile π = ⟨S, P, F⟩ (paper §3.1):
//   S — the requested stream names,
//   P — per-stream projection attribute sets (the CBN extension: early
//       projection saves transmitting unneeded attributes),
//   F — a disjunction of single-stream filters.
// A datagram is covered by the profile iff some filter covers it. A stream
// in S with no filter is requested unconditionally (every datagram of that
// stream is covered) — this is how a user subscribes to a whole result
// stream by its unique name.
class Profile {
 public:
  Profile() = default;

  // Adds `stream` to S with projection set P(stream) = `attributes`
  // (empty = all attributes).
  void AddStream(const std::string& stream,
                 std::vector<std::string> attributes = {});

  // Adds a filter to F; its stream is added to S if absent (with an
  // all-attributes projection unless AddStream set one).
  void AddFilter(Filter filter);

  const std::set<std::string>& streams() const { return streams_; }
  bool WantsStream(const std::string& stream) const {
    return streams_.count(stream) > 0;
  }

  // Projection set of `stream`; empty vector = all attributes.
  const std::vector<std::string>& ProjectionOf(
      const std::string& stream) const;

  const std::vector<Filter>& filters() const { return filters_; }

  // Filters defined on `stream`. Backed by a per-stream index maintained
  // in AddFilter, so per-stream iteration does not scan filters of the
  // profile's other streams (the routing index relies on this).
  std::vector<const Filter*> FiltersOf(const std::string& stream) const;

  // This profile's part on `stream`: S = {stream}, P(stream), and the
  // filters of `stream` in their order here.
  Profile StreamPart(const std::string& stream) const;

  // Coverage test (paper: "a datagram is covered by a profile if it is
  // covered by any filters in the profile"; streams without filters are
  // covered unconditionally).
  bool Covers(const Datagram& d) const;

  // Attributes of `stream` the network must retain when forwarding a
  // datagram matched by this profile: projection set plus every attribute
  // any of the stream's filters references (needed for downstream
  // re-evaluation). Empty = all.
  std::vector<std::string> RequiredAttributes(const std::string& stream) const;

  std::string ToString() const;

 private:
  std::set<std::string> streams_;
  std::map<std::string, std::vector<std::string>> projections_;
  std::vector<Filter> filters_;
  // stream -> indices into filters_ defined on it.
  std::map<std::string, std::vector<size_t>> filters_by_stream_;
};

using ProfilePtr = std::shared_ptr<const Profile>;

}  // namespace cosmos

#endif  // COSMOS_CBN_PROFILE_H_
