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
  // One requested stream's part of the profile, kept current by AddStream
  // and AddFilter as the profile is built, so reading it (covering checks,
  // bucket masks, matcher compiles) allocates nothing.
  struct StreamRecord {
    // P(stream); empty = all attributes.
    std::vector<std::string> projection;
    // Indices into filters() of the filters defined on the stream, in
    // profile order.
    std::vector<size_t> filters;
    // RequiredAttributes(stream): the projection, then each filter's
    // referenced attributes in filter order, deduplicated; empty = all.
    std::vector<std::string> required;
  };

  Profile() = default;

  // Adds `stream` to S with projection set P(stream) = `attributes`
  // (empty = all attributes). On a stream already in S the projection
  // widens to the union, and to all attributes when either side is.
  void AddStream(const std::string& stream,
                 std::vector<std::string> attributes = {});

  // Adds a filter to F; its stream is added to S if absent (with an
  // all-attributes projection unless AddStream set one).
  void AddFilter(Filter filter);

  const std::set<std::string>& streams() const { return streams_; }
  bool WantsStream(const std::string& stream) const {
    return streams_.count(stream) > 0;
  }

  // The per-stream records, keyed like streams().
  const std::map<std::string, StreamRecord>& records() const {
    return records_;
  }
  // `stream`'s record; nullptr when the profile does not request it.
  const StreamRecord* RecordOf(const std::string& stream) const;

  // Projection set of `stream`; empty vector = all attributes.
  const std::vector<std::string>& ProjectionOf(
      const std::string& stream) const;

  const std::vector<Filter>& filters() const { return filters_; }

  // Indices into filters() of the filters defined on `stream`, so
  // per-stream iteration does not scan filters of the profile's other
  // streams (the routing index relies on this).
  const std::vector<size_t>& FilterIndicesOf(const std::string& stream) const;

  // This profile's part on `stream`: S = {stream}, P(stream), and the
  // filters of `stream` in their order here.
  Profile StreamPart(const std::string& stream) const;

  // Coverage test (paper: "a datagram is covered by a profile if it is
  // covered by any filters in the profile"; streams without filters are
  // covered unconditionally).
  bool Covers(const Datagram& d) const;

  // Attributes of `stream` the network must retain when forwarding a
  // datagram matched by this profile: the projection set, then every
  // attribute any of the stream's filters references (needed for
  // downstream re-evaluation), in filter order without repeats. Empty =
  // all. The reference is to the stream's record.
  const std::vector<std::string>& RequiredAttributes(
      const std::string& stream) const;

  // Structural equality: the same streams, the same projection lists and
  // the same filters in the same order. Exact where ToString() is not: its
  // double constants print at 6 significant digits.
  bool operator==(const Profile& other) const;

  std::string ToString() const;

 private:
  // Appends the attributes `filter` references to `record`'s required
  // list, skipping ones already there (a no-op under an all-attributes
  // projection).
  static void RequireFilterAttributes(const Filter& filter,
                                      StreamRecord* record);

  std::set<std::string> streams_;
  std::map<std::string, StreamRecord> records_;
  std::vector<Filter> filters_;
};

using ProfilePtr = std::shared_ptr<const Profile>;

}  // namespace cosmos

#endif  // COSMOS_CBN_PROFILE_H_
