#ifndef COSMOS_CORE_PROFILE_COMPOSER_H_
#define COSMOS_CORE_PROFILE_COMPOSER_H_

#include "cbn/profile.h"
#include "cbn/projection.h"
#include "core/containment.h"

namespace cosmos {

// Profile composition (paper §4).

// The profile a processor submits to the data layer to pull the source data
// of `query`:
//   S = the FROM streams,
//   P = per stream, every attribute the query references,
//   F = per stream, the query's canonical local selection.
Profile ComposeSourceProfile(const AnalyzedQuery& query);

// The re-tightening profile a user submits to pull their own result out of
// the representative's result stream (paper §4's p1/p2 example):
//   S = {rep result stream},
//   P = the user query's output columns, mapped to the representative's
//       output attribute names,
//   F = one filter re-imposing (a) the user's selection constraints that
//       the representative loosened and (b) the Lemma-1 window condition
//       when the user's windows are tighter than the representative's.
// Requires QueryContains(rep, user) — i.e. they are group mates.
Result<Profile> ComposeUserProfile(const AnalyzedQuery& user,
                                   const AnalyzedQuery& rep);

// Convenience for unmerged queries: the profile retrieving the whole result
// stream of `query` (unique stream name, no filter, full projection) — the
// traditional per-query delivery the paper contrasts against.
Profile ComposeWholeStreamProfile(const std::string& result_stream);

// The representative's output-attribute names for the user query's output
// columns, in the user's SELECT order (an aggregate's group mates are
// equivalent, so its columns map positionally onto the representative's).
// Requires QueryContains(rep, user).
Result<std::vector<std::string>> UserColumnRepNames(const AnalyzedQuery& user,
                                                    const AnalyzedQuery& rep);

// The shape a user takes a representative-stream tuple in: the user query's
// result schema (user attribute names, user column order, user result-
// stream name), column i taken from the representative's column
// UserColumnRepNames()[i]. Subscribed with the user's profile, it has the
// CBN's last hop build the user's tuple, so a merged query's delivery is
// byte-identical to an unmerged one's.
Result<TupleTarget> ComposeUserTarget(const AnalyzedQuery& user,
                                      const AnalyzedQuery& rep);

}  // namespace cosmos

#endif  // COSMOS_CORE_PROFILE_COMPOSER_H_
