#include "cbn/covering.h"

#include <algorithm>

#include "common/check.h"
#include "expr/implication.h"

namespace cosmos {

bool FilterCovers(const Filter& wide, const Filter& narrow) {
  if (wide.stream() != narrow.stream()) return false;
  // Covering is implication of clauses; implication must at minimum be
  // reflexive on live data or the cover relation loses its partial-order
  // structure (Theorem 2 relies on it).
  COSMOS_DCHECK(ClauseImplies(narrow.clause(), narrow.clause()))
      << "implication not reflexive for " << narrow.stream();
  return ClauseImplies(narrow.clause(), wide.clause());
}

namespace {

// Required set `wide` admits everything `narrow` needs (empty = all).
bool RequiredCovers(const std::vector<std::string>& wide,
                    const std::vector<std::string>& narrow) {
  if (wide.empty()) return true;
  if (narrow.empty()) return false;  // narrow wants all, wide is a subset
  for (const auto& a : narrow) {
    if (std::find(wide.begin(), wide.end(), a) == wide.end()) return false;
  }
  return true;
}

// Each of `narrow`'s filters on one stream is implied by one of `wide`'s,
// given both profiles' records of that stream.
bool FiltersCover(const Profile& wide, const Profile::StreamRecord& w,
                  const Profile& narrow, const Profile::StreamRecord& n) {
  if (w.filters.empty()) return true;   // wide takes the whole stream
  if (n.filters.empty()) return false;  // narrow takes the whole stream
  return std::all_of(n.filters.begin(), n.filters.end(), [&](size_t ni) {
    return std::any_of(w.filters.begin(), w.filters.end(), [&](size_t wi) {
      return FilterCovers(wide.filters()[wi], narrow.filters()[ni]);
    });
  });
}

// ProfileCovers, skipping the required-attribute half on `known` (nullptr:
// none).
bool Covers(const Profile& wide, const Profile& narrow,
            const std::string* known) {
  for (const auto& [stream, n] : narrow.records()) {
    const Profile::StreamRecord* w = wide.RecordOf(stream);
    if (w == nullptr) return false;
    // Compare *required* attribute sets (projection plus filter-referenced
    // attributes), not raw projections: when a pruned subscription's entry
    // sits downstream of links that early-project to the coverer's required
    // set, its filters must still be evaluable on what survives.
    if ((known == nullptr || stream != *known) &&
        !RequiredCovers(w->required, n.required)) {
      return false;
    }
    if (!FiltersCover(wide, *w, narrow, n)) return false;
  }
  return true;
}

}  // namespace

bool ProfileCovers(const Profile& wide, const Profile& narrow) {
  return Covers(wide, narrow, nullptr);
}

bool ProfileCoversGivenRequired(const Profile& wide, const Profile& narrow,
                                const std::string& stream) {
  return Covers(wide, narrow, &stream);
}

Profile MergeProfiles(const Profile& a, const Profile& b) {
  Profile out;
  for (const auto& p : {&a, &b}) {
    for (const auto& stream : p->streams()) {
      // Widen projections to the union of *required* attribute sets so
      // early projection upstream keeps everything either side needs.
      out.AddStream(stream, p->RequiredAttributes(stream));
      // "All attributes" dominates.
      if (p->ProjectionOf(stream).empty()) out.AddStream(stream, {});
    }
  }
  // Concatenate filters, pruning ones covered by an already-kept filter.
  std::vector<Filter> kept;
  auto consider = [&kept](const Filter& f) {
    for (const auto& k : kept) {
      if (FilterCovers(k, f)) return;
    }
    kept.push_back(f);
  };
  // Streams subscribed without filters swallow all filters of that stream.
  auto unconditional = [](const Profile& p, const std::string& stream) {
    const Profile::StreamRecord* record = p.RecordOf(stream);
    return record != nullptr && record->filters.empty();
  };
  for (const auto& p : {&a, &b}) {
    const Profile& other = (p == &a) ? b : a;
    for (const auto& f : p->filters()) {
      if (unconditional(other, f.stream())) continue;
      consider(f);
    }
  }
  // Keep streams that either side requests unconditionally filter-free.
  for (const auto& f : kept) out.AddFilter(f);
  // The merge is a relaxation: the merged profile must cover both inputs,
  // or upstream routing would drop datagrams a subscriber still needs.
  COSMOS_DCHECK(ProfileCovers(out, a)) << "merged profile fails to cover a";
  COSMOS_DCHECK(ProfileCovers(out, b)) << "merged profile fails to cover b";
  return out;
}

}  // namespace cosmos
