#ifndef COSMOS_CORE_MERGER_H_
#define COSMOS_CORE_MERGER_H_

#include <optional>
#include <string>
#include <vector>

#include "core/containment.h"
#include "stream/catalog.h"

namespace cosmos {

// Representative-query composition (paper §4): given member queries with
// overlapping results, produce one query q whose result contains every
// member's result, by merging selection predicates (interval hulls), window
// predicates (max) and projections (union). The loosened constraints are
// re-tightened in per-user CBN profiles (core/profile_composer.h).
//
// Group restrictions (paper §4 plus the sound strengthening of Theorem 2
// documented in DESIGN.md):
//  - identical FROM stream sets (no self-joins), aligned by stream name;
//  - identical equi-join sets and cross residuals;
//  - for aggregate queries: identical aggregates, grouping, windows and
//    equivalent selections (the representative is then just a rename).
//
// The representative additionally projects, per source:
//  - every attribute on which member selections disagree (so user profiles
//    can re-filter), and
//  - the "timestamp" attribute of every source when member windows differ
//    in a multi-stream query (so the Lemma-1 window condition can be
//    re-imposed downstream). Merging fails if such a source lacks a
//    "timestamp" attribute.

// Canonical signature string: two queries can only be group mates when
// their signatures match. It holds, alias-free, the FROM stream set, the
// equi-join set, the cross residuals and, for aggregates, the aggregate
// list, grouping columns and windows. Used to index groups.
std::string MergeSignature(const AnalyzedQuery& q);

// The one merge condition the signature cannot encode: aligned local
// selections must be equivalent wherever either carries a residual
// conjunct (opaque to the hull), and always for aggregates (Theorem 2).
// Returns AlignSources(a, b) when it holds, nullopt otherwise. Two queries
// with equal signatures are group mates exactly when this has a value.
std::optional<std::vector<size_t>> MergeAlignment(const AnalyzedQuery& a,
                                                  const AnalyzedQuery& b);

// True when the two queries are mergeable into one group: equal
// signatures and a MergeAlignment.
bool MergeCompatible(const AnalyzedQuery& a, const AnalyzedQuery& b);

// Composes (and re-analyzes, against `catalog`) the representative of
// `members` with result stream `result_name`. Fails when the members are
// not group-compatible. Postcondition (property-tested):
// QueryContains(rep, *m) for every member m, and every member's user
// profile composes against rep (ComposeUserProfile in
// core/profile_composer.h), which is what splits its results back out.
Result<AnalyzedQuery> ComposeRepresentative(
    const std::vector<const AnalyzedQuery*>& members, const Catalog& catalog,
    const std::string& result_name);

}  // namespace cosmos

#endif  // COSMOS_CORE_MERGER_H_
