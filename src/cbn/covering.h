#ifndef COSMOS_CBN_COVERING_H_
#define COSMOS_CBN_COVERING_H_

#include <string>

#include "cbn/profile.h"

namespace cosmos {

// Covering relations between filters and profiles, used for subscription
// aggregation: when a profile already installed on a link covers a new one,
// the new subscription need not be propagated further (classic CBN
// optimization, SIENA-style). All tests are sound and conservative — a
// "true" is a guarantee, a "false" means "could not prove".

// True iff every datagram covered by `narrow` is covered by `wide`
// (requires same stream and clause implication).
bool FilterCovers(const Filter& wide, const Filter& narrow);

// True iff every datagram covered by `narrow` is covered by `wide`, and
// `wide` retains at least the attributes `narrow` needs — its projection
// plus the attributes its filters reference, so the narrow profile stays
// evaluable downstream of early projection ("all" covers anything). The
// reference definition of profile covering: it walks `narrow`'s stream
// records, looks up `wide`'s record once per stream, and allocates nothing.
bool ProfileCovers(const Profile& wide, const Profile& narrow);

// ProfileCovers when `wide` requests `stream` and is already known to
// retain every attribute of it that `narrow` requires (a caller that
// compared required-attribute masks): only the rest is checked.
bool ProfileCoversGivenRequired(const Profile& wide, const Profile& narrow,
                                const std::string& stream);

// Union of two profiles: S/P unions, filter concatenation with
// covered-filter pruning. The result covers exactly the union of the two
// coverages (projections widen to the union of required sets).
Profile MergeProfiles(const Profile& a, const Profile& b);

}  // namespace cosmos

#endif  // COSMOS_CBN_COVERING_H_
