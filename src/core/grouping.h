#ifndef COSMOS_CORE_GROUPING_H_
#define COSMOS_CORE_GROUPING_H_

#include <map>
#include <memory>

#include "core/merger.h"
#include "core/query_group.h"
#include "core/rate_estimator.h"

namespace cosmos {

struct GroupingOptions {
  // Only merge when the estimated marginal benefit strictly exceeds this
  // (bytes/sec). Zero reproduces the paper's greedy "maximum benefit" rule.
  double min_benefit = 0.0;
  // Cap on candidate groups examined per insertion (with the signature
  // index this rarely binds; it bounds worst-case insert latency).
  size_t max_candidates = 256;
};

// The incremental greedy query-grouping optimizer (paper §4): each new
// query is assigned to the existing compatible group with the maximum
// positive marginal benefit
//     [C(rep_g) + C(q)] - C(rep_{g ∪ {q}})
// or opens a new singleton group when no merge is beneficial. Groups are
// indexed by MergeSignature, so only groups with the newcomer's signature
// are examined, and MergeAlignment alone decides whether it may join one.
// The winner's representative is recomposed only when it does not contain
// the newcomer or the newcomer's user profile does not compose against it
// (ComposeUserProfile, core/profile_composer.h).
class GroupingEngine {
 public:
  // `name_prefix` namespaces the groups' result-stream names (processors
  // pass "p<node>_" so stream names stay globally unique across the
  // system).
  GroupingEngine(const Catalog* catalog, GroupingOptions options = {},
                 RateEstimatorOptions rate_options = {},
                 std::string name_prefix = "");

  struct AddResult {
    uint64_t group_id = 0;
    bool created_new_group = false;
    // True when the group's representative changed (the processor must
    // reinstall the SPE query and refresh subscriptions).
    bool representative_changed = false;
    double marginal_benefit = 0.0;
  };

  // Inserts `query` (analyzed, result name irrelevant — the group assigns
  // its own); `query_id` must be unique.
  Result<AddResult> AddQuery(const std::string& query_id,
                             const AnalyzedQuery& query);

  // Removes a query; the group shrinks (and is dropped when empty). The
  // representative is recomposed from the remaining members.
  Result<AddResult> RemoveQuery(const std::string& query_id);

  const std::map<uint64_t, QueryGroup>& groups() const { return groups_; }
  const QueryGroup* FindGroup(uint64_t group_id) const;
  const QueryGroup* GroupOf(const std::string& query_id) const;

  size_t num_queries() const { return query_to_group_.size(); }
  size_t num_groups() const { return groups_.size(); }

  // #groups / #queries — Figure 4(b)'s metric.
  double GroupingRatio() const;

  // Σ C(qᵢ) over all member queries (the no-merging cost) and
  // Σ C(rep_g) (the merged cost); their gap over the former is the
  // rate-model benefit ratio.
  double TotalMemberRate() const;
  double TotalRepresentativeRate() const;

  const RateEstimator& rate_estimator() const { return estimator_; }

  // Bookkeeping invariants (DCHECK'd after every mutation): every grouped
  // query maps to a live group, member lists and the query index agree,
  // each representative's signature is its group's, the signature index
  // holds each group exactly once, and estimated group costs are finite
  // and non-negative.
  bool CheckInvariants() const;

 private:
  Result<AnalyzedQuery> Recompose(QueryGroup& group);

  const Catalog* catalog_;
  GroupingOptions options_;
  RateEstimator estimator_;
  std::string name_prefix_;
  uint64_t next_group_id_ = 1;
  std::map<uint64_t, QueryGroup> groups_;
  std::map<std::string, uint64_t> query_to_group_;
  std::multimap<std::string, uint64_t> by_signature_;
};

}  // namespace cosmos

#endif  // COSMOS_CORE_GROUPING_H_
