#include "core/containment.h"

#include <algorithm>
#include <set>

#include "expr/implication.h"

namespace cosmos {
namespace {

// Output columns as alias-free (stream, attribute) pairs.
std::set<std::pair<std::string, std::string>> OutputPairs(
    const AnalyzedQuery& q) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& c : q.output_columns()) {
    out.insert({q.sources()[c.source].from.stream,
                q.sources()[c.source].schema->attribute(c.attr).name});
  }
  return out;
}

std::map<std::string, std::string> AliasMap(
    const AnalyzedQuery& from, const AnalyzedQuery& to,
    const std::vector<size_t>& from_to_to) {
  std::map<std::string, std::string> m;
  for (size_t i = 0; i < from.sources().size(); ++i) {
    m[from.sources()[i].alias()] = to.sources()[from_to_to[i]].alias();
  }
  return m;
}

bool ResidualsMatch(const AnalyzedQuery& container,
                    const AnalyzedQuery& containee,
                    const std::vector<size_t>& containee_to_container,
                    bool require_equal) {
  auto alias_map = AliasMap(containee, container, containee_to_container);
  auto container_alias = [&alias_map](const ColumnRefExpr& col) {
    auto it = alias_map.find(col.qualifier());
    return it == alias_map.end() ? col.qualifier() : it->second;
  };
  std::vector<ExprPtr> remapped;
  for (const auto& r : containee.cross_residual()) {
    remapped.push_back(RewriteColumns(r, container_alias));
  }
  // Every residual of the container must be enforced by the containee.
  for (const auto& rc : container.cross_residual()) {
    bool found = false;
    for (const auto& re : remapped) {
      if (rc->Equals(*re)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  if (require_equal &&
      remapped.size() != container.cross_residual().size()) {
    return false;
  }
  return true;
}

bool AggregatesEqual(const AnalyzedQuery& a, const AnalyzedQuery& b,
                     const std::vector<size_t>& a_to_b) {
  if (a.aggregates().size() != b.aggregates().size()) return false;
  for (size_t i = 0; i < a.aggregates().size(); ++i) {
    const auto& x = a.aggregates()[i];
    const auto& y = b.aggregates()[i];
    if (x.func != y.func || x.star != y.star) return false;
    if (!x.star) {
      if (a_to_b[x.source] != y.source) return false;
      const std::string& xa =
          a.sources()[x.source].schema->attribute(x.attr).name;
      const std::string& ya =
          b.sources()[y.source].schema->attribute(y.attr).name;
      if (xa != ya) return false;
    }
  }
  if (a.group_by().size() != b.group_by().size()) return false;
  for (size_t i = 0; i < a.group_by().size(); ++i) {
    const auto& x = a.group_by()[i];
    const auto& y = b.group_by()[i];
    if (a_to_b[x.source] != y.source) return false;
    const std::string& xa =
        a.sources()[x.source].schema->attribute(x.attr).name;
    const std::string& ya =
        b.sources()[y.source].schema->attribute(y.attr).name;
    if (xa != ya) return false;
  }
  return true;
}

}  // namespace

std::set<CanonicalJoin> CanonicalJoins(const AnalyzedQuery& q) {
  std::set<CanonicalJoin> out;
  for (const auto& j : q.equi_joins()) {
    JoinEnd l{q.sources()[j.left_source].from.stream,
              q.sources()[j.left_source].schema->attribute(j.left_attr).name};
    JoinEnd r{
        q.sources()[j.right_source].from.stream,
        q.sources()[j.right_source].schema->attribute(j.right_attr).name};
    if (r < l) std::swap(l, r);
    out.insert({l, r});
  }
  return out;
}

std::optional<std::vector<size_t>> AlignSources(const AnalyzedQuery& a,
                                                const AnalyzedQuery& b) {
  if (a.sources().size() != b.sources().size()) return std::nullopt;
  std::vector<size_t> mapping(a.sources().size());
  std::vector<bool> used(b.sources().size(), false);
  for (size_t i = 0; i < a.sources().size(); ++i) {
    const std::string& stream = a.sources()[i].from.stream;
    // Reject self-joins (duplicate streams) in either query.
    for (size_t k = i + 1; k < a.sources().size(); ++k) {
      if (a.sources()[k].from.stream == stream) return std::nullopt;
    }
    bool found = false;
    for (size_t j = 0; j < b.sources().size(); ++j) {
      if (!used[j] && b.sources()[j].from.stream == stream) {
        mapping[i] = j;
        used[j] = true;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return mapping;
}

bool RelationalContains(const AnalyzedQuery& container,
                        const AnalyzedQuery& containee,
                        const std::vector<size_t>& containee_to_container) {
  // Selections: containee's per-source clause must imply container's.
  for (size_t i = 0; i < containee.sources().size(); ++i) {
    const auto& narrow = containee.local_selection(i);
    const auto& wide =
        container.local_selection(containee_to_container[i]);
    if (!ClauseImplies(narrow, wide)) return false;
  }
  // Joins: every join the container performs must be performed by the
  // containee (missing joins in the containee would admit rows the
  // container filters out — wait, the other way: the container's
  // conditions must be implied, so container joins ⊆ containee joins).
  auto cj = CanonicalJoins(container);
  auto ej = CanonicalJoins(containee);
  for (const auto& j : cj) {
    if (ej.find(j) == ej.end()) return false;
  }
  if (!ResidualsMatch(container, containee, containee_to_container,
                      /*require_equal=*/false)) {
    return false;
  }
  // Projection: container must emit every column containee emits.
  if (!container.is_aggregate()) {
    auto cp = OutputPairs(container);
    for (const auto& p : OutputPairs(containee)) {
      if (cp.find(p) == cp.end()) return false;
    }
  }
  return true;
}

bool QueryContains(const AnalyzedQuery& container,
                   const AnalyzedQuery& containee) {
  auto align = AlignSources(containee, container);
  if (!align.has_value()) return false;
  if (container.is_aggregate() != containee.is_aggregate()) return false;

  if (!RelationalContains(container, containee, *align)) return false;

  if (container.is_aggregate()) {
    // Theorem 2 (sound form): identical windows, aggregates, grouping, and
    // equivalent selections/joins/residuals.
    for (size_t i = 0; i < containee.sources().size(); ++i) {
      if (containee.WindowSize(i) != container.WindowSize((*align)[i])) {
        return false;
      }
      const auto& a = containee.local_selection(i);
      const auto& b = container.local_selection((*align)[i]);
      if (!ClauseImplies(a, b) || !ClauseImplies(b, a)) return false;
    }
    if (CanonicalJoins(container) != CanonicalJoins(containee)) return false;
    if (!ResidualsMatch(container, containee, *align,
                        /*require_equal=*/true)) {
      return false;
    }
    if (!AggregatesEqual(containee, container, *align)) return false;
    return true;
  }

  // Theorem 1: window containment T^i_1 <= T^i_2 per aligned source.
  for (size_t i = 0; i < containee.sources().size(); ++i) {
    Duration t1 = containee.WindowSize(i);
    Duration t2 = container.WindowSize((*align)[i]);
    if (t2 == kInfiniteDuration) continue;
    if (t1 == kInfiniteDuration || t1 > t2) return false;
  }
  return true;
}

bool QueryEquivalent(const AnalyzedQuery& a, const AnalyzedQuery& b) {
  return QueryContains(a, b) && QueryContains(b, a);
}

}  // namespace cosmos
