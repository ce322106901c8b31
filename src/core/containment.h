#ifndef COSMOS_CORE_CONTAINMENT_H_
#define COSMOS_CORE_CONTAINMENT_H_

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/analyzer.h"

namespace cosmos {

// Continuous-query containment (paper §4, Definition 1): q1 ⊑ q2 iff
// q1(S,τ) ⊆ q2(S,τ) for every stream instance S and time τ. The tests here
// implement the *sufficient* conditions of Theorems 1 and 2 — a true answer
// is a guarantee; false means "not provable with these theorems".
//
// Alignment: sources are matched by stream name (queries over different
// stream sets are never comparable; self-joins are not supported by the
// merger and are rejected here).

// Maps each source index of `a` to the index of the same stream in `b`;
// nullopt when the stream sets differ or either query repeats a stream.
std::optional<std::vector<size_t>> AlignSources(const AnalyzedQuery& a,
                                                const AnalyzedQuery& b);

// An equi-join in canonical, alias-free form: ((stream, attr), (stream,
// attr)) with the lexicographically smaller endpoint first.
using JoinEnd = std::pair<std::string, std::string>;
using CanonicalJoin = std::pair<JoinEnd, JoinEnd>;

// The equi-joins of `q` in canonical form: two queries join the same
// columns exactly when these sets are equal, whatever their aliases
// (containment compares them, and MergeSignature spells them out).
std::set<CanonicalJoin> CanonicalJoins(const AnalyzedQuery& q);

// Q∞ containment of the relational (window-free) parts: every condition
// `container` imposes is implied by `containee`'s conditions, and
// `container` projects every column `containee` projects.
bool RelationalContains(const AnalyzedQuery& container,
                        const AnalyzedQuery& containee,
                        const std::vector<size_t>& containee_to_container);

// Theorem 1 (select-project-join): Q1 ⊑ Q2 if Q1∞ ⊑ Q2∞ and T1_i <= T2_i
// for every aligned source. Theorem 2 (aggregates): additionally the window
// sizes must be equal and — sound strengthening over the paper's statement,
// see DESIGN.md — the aggregate lists, grouping columns and selection
// predicates must be equivalent, since a looser superset query changes
// aggregate values rather than producing a superset of rows.
bool QueryContains(const AnalyzedQuery& container,
                   const AnalyzedQuery& containee);

// Both directions (used to deduplicate equivalent queries).
bool QueryEquivalent(const AnalyzedQuery& a, const AnalyzedQuery& b);

}  // namespace cosmos

#endif  // COSMOS_CORE_CONTAINMENT_H_
