#include "core/grouping.h"

#include <cmath>

#include "common/check.h"
#include "common/string_util.h"
#include "core/profile_composer.h"

namespace cosmos {

GroupingEngine::GroupingEngine(const Catalog* catalog,
                               GroupingOptions options,
                               RateEstimatorOptions rate_options,
                               std::string name_prefix)
    : catalog_(catalog), options_(options),
      estimator_(catalog, rate_options),
      name_prefix_(std::move(name_prefix)) {}

const QueryGroup* GroupingEngine::FindGroup(uint64_t group_id) const {
  auto it = groups_.find(group_id);
  return it == groups_.end() ? nullptr : &it->second;
}

const QueryGroup* GroupingEngine::GroupOf(const std::string& query_id) const {
  auto it = query_to_group_.find(query_id);
  if (it == query_to_group_.end()) return nullptr;
  return FindGroup(it->second);
}

Result<AnalyzedQuery> GroupingEngine::Recompose(QueryGroup& group) {
  std::vector<const AnalyzedQuery*> members;
  members.reserve(group.members.size());
  for (const auto& m : group.members) members.push_back(&m);
  return ComposeRepresentative(members, *catalog_,
                               group.ResultStreamName());
}

Result<GroupingEngine::AddResult> GroupingEngine::AddQuery(
    const std::string& query_id, const AnalyzedQuery& query) {
  if (query_to_group_.count(query_id) > 0) {
    return Status::AlreadyExists(
        StrFormat("query '%s' already grouped", query_id.c_str()));
  }
  const std::string signature = MergeSignature(query);
  const double query_rate = estimator_.EstimateOutputRate(query);

  // Greedy step: among compatible groups, find the max marginal benefit.
  uint64_t best_group = 0;
  double best_benefit = options_.min_benefit;
  bool found = false;

  auto [begin, end] = by_signature_.equal_range(signature);
  size_t examined = 0;
  for (auto it = begin; it != end && examined < options_.max_candidates;
       ++it, ++examined) {
    QueryGroup& g = groups_.at(it->second);
    // The index matched the signatures (CheckInvariants: a group's
    // signature is its representative's), so the alignment decides.
    auto align = MergeAlignment(query, g.representative);
    if (!align.has_value()) continue;
    // Rank by the fast merged-rate prediction; the winner is composed
    // exactly once below. Merging the current representative with the
    // newcomer contains all members (containment is transitive).
    double merged_rate = estimator_.EstimateMergedOutputRate(
        g.representative, query, *align);
    double marginal = (g.representative_rate + query_rate) - merged_rate;
    if (marginal > best_benefit) {
      best_benefit = marginal;
      best_group = it->second;
      found = true;
    }
  }

  AddResult result;
  if (found) {
    QueryGroup& g = groups_.at(best_group);
    // Only bump the version (and thus the result stream name) when the
    // representative actually widens — or when it contains the newcomer
    // but the newcomer's user profile cannot split its results out, e.g.
    // the representative does not project an attribute the profile must
    // re-filter on (recomposition adds that projection).
    bool widened = !QueryContains(g.representative, query) ||
                   !ComposeUserProfile(query, g.representative).ok();
    if (widened) {
      ++g.version;
      std::vector<const AnalyzedQuery*> pair = {&g.representative, &query};
      auto rep =
          ComposeRepresentative(pair, *catalog_, g.ResultStreamName());
      if (!rep.ok()) {
        // Exact composition failed despite the estimate: fall back to a
        // fresh singleton group below.
        --g.version;
        found = false;
      } else {
        g.representative = std::move(*rep);
      }
    }
    if (found) {
      g.member_ids.push_back(query_id);
      g.members.push_back(query);
      g.representative_rate =
          estimator_.EstimateOutputRate(g.representative);
      query_to_group_[query_id] = best_group;
      // ComposeRepresentative's postcondition (Theorem 1/2 containment):
      // the group representative answers every member, in particular the
      // newcomer — otherwise the user profile cannot re-tighten its results
      // out of the group stream.
      COSMOS_DCHECK(QueryContains(g.representative, query))
          << "representative of group " << best_group
          << " does not contain query '" << query_id << "'";
      COSMOS_DCHECK(CheckInvariants());
      result.group_id = best_group;
      result.created_new_group = false;
      result.representative_changed = widened;
      result.marginal_benefit = best_benefit;
      return result;
    }
  }

  // Open a new singleton group.
  QueryGroup g;
  g.group_id = next_group_id_++;
  g.version = 1;
  g.name_prefix = name_prefix_;
  g.member_ids.push_back(query_id);
  g.members.push_back(query);
  g.signature = signature;
  // Re-analyze under the group's stream name so the representative's output
  // schema carries the group result stream.
  COSMOS_ASSIGN_OR_RETURN(
      g.representative,
      Analyze(query.ast(), *catalog_, g.ResultStreamName()));
  g.representative_rate = estimator_.EstimateOutputRate(g.representative);

  result.group_id = g.group_id;
  result.created_new_group = true;
  result.representative_changed = true;
  result.marginal_benefit = 0.0;
  query_to_group_[query_id] = g.group_id;
  by_signature_.emplace(signature, g.group_id);
  groups_.emplace(g.group_id, std::move(g));
  COSMOS_DCHECK(CheckInvariants());
  return result;
}

Result<GroupingEngine::AddResult> GroupingEngine::RemoveQuery(
    const std::string& query_id) {
  auto it = query_to_group_.find(query_id);
  if (it == query_to_group_.end()) {
    return Status::NotFound(StrFormat("query '%s'", query_id.c_str()));
  }
  uint64_t gid = it->second;
  QueryGroup& g = groups_.at(gid);
  for (size_t i = 0; i < g.member_ids.size(); ++i) {
    if (g.member_ids[i] == query_id) {
      g.member_ids.erase(g.member_ids.begin() + static_cast<long>(i));
      g.members.erase(g.members.begin() + static_cast<long>(i));
      break;
    }
  }
  query_to_group_.erase(it);

  AddResult result;
  result.group_id = gid;
  if (g.members.empty()) {
    // Drop the group entirely.
    for (auto sit = by_signature_.begin(); sit != by_signature_.end();
         ++sit) {
      if (sit->second == gid) {
        by_signature_.erase(sit);
        break;
      }
    }
    groups_.erase(gid);
    result.representative_changed = true;
    COSMOS_DCHECK(CheckInvariants());
    return result;
  }
  ++g.version;
  COSMOS_ASSIGN_OR_RETURN(g.representative, Recompose(g));
  g.representative_rate = estimator_.EstimateOutputRate(g.representative);
  result.representative_changed = true;
  COSMOS_DCHECK(CheckInvariants());
  return result;
}

bool GroupingEngine::CheckInvariants() const {
  size_t total_members = 0;
  for (const auto& [gid, g] : groups_) {
    if (g.members.empty()) return false;  // empty groups must be dropped
    if (g.member_ids.size() != g.members.size()) return false;
    if (g.version == 0) return false;  // versions start at 1 and only grow
    // Group cost must stay a usable quantity: merging can only produce a
    // finite, non-negative estimated representative rate.
    if (!(g.representative_rate >= 0.0) ||
        std::isinf(g.representative_rate)) {
      return false;
    }
    for (const auto& id : g.member_ids) {
      auto it = query_to_group_.find(id);
      if (it == query_to_group_.end() || it->second != gid) return false;
      ++total_members;
    }
    // The representative keeps the members' signature, so the index's
    // candidates need only MergeAlignment.
    if (MergeSignature(g.representative) != g.signature) return false;
    // Exactly one signature-index entry per group.
    size_t hits = 0;
    auto [begin, end] = by_signature_.equal_range(g.signature);
    for (auto it2 = begin; it2 != end; ++it2) {
      if (it2->second == gid) ++hits;
    }
    if (hits != 1) return false;
  }
  // Every grouped query is a member of exactly one group.
  return total_members == query_to_group_.size();
}

double GroupingEngine::GroupingRatio() const {
  if (query_to_group_.empty()) return 1.0;
  return static_cast<double>(groups_.size()) /
         static_cast<double>(query_to_group_.size());
}

double GroupingEngine::TotalMemberRate() const {
  double total = 0.0;
  for (const auto& [id, g] : groups_) {
    for (const auto& m : g.members) {
      total += estimator_.EstimateOutputRate(m);
    }
  }
  return total;
}

double GroupingEngine::TotalRepresentativeRate() const {
  double total = 0.0;
  for (const auto& [id, g] : groups_) total += g.representative_rate;
  return total;
}

}  // namespace cosmos
