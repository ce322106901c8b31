#include "core/merger.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"
#include "expr/implication.h"
#include "expr/relaxation.h"
#include "query/parser.h"
#include "query/unparser.h"

namespace cosmos {
namespace {

// Cross residuals rendered alias-free (each qualifier replaced by its
// stream name) and sorted, for comparison across differently-aliased
// queries.
std::multiset<std::string> CanonicalResiduals(const AnalyzedQuery& q) {
  std::multiset<std::string> out;
  if (q.cross_residual().empty()) return out;
  std::map<std::string, std::string> alias_to_stream;
  for (const auto& s : q.sources()) {
    alias_to_stream[s.alias()] = s.from.stream;
  }
  auto stream_of = [&alias_to_stream](const ColumnRefExpr& col) {
    auto it = alias_to_stream.find(col.qualifier());
    return it == alias_to_stream.end() ? col.qualifier() : it->second;
  };
  for (const auto& r : q.cross_residual()) {
    out.insert(RewriteColumns(r, stream_of)->ToString());
  }
  return out;
}

std::string AggSignature(const AnalyzedQuery& q) {
  if (!q.is_aggregate()) return "SPJ";
  std::string out = "AGG:";
  for (const auto& a : q.aggregates()) {
    out += AggFuncToString(a.func);
    out += "(";
    out += a.star ? "*"
                  : q.sources()[a.source].from.stream + "." +
                        q.sources()[a.source].schema->attribute(a.attr).name;
    out += ");";
  }
  out += "BY:";
  for (const auto& g : q.group_by()) {
    out += q.sources()[g.source].from.stream + "." +
           q.sources()[g.source].schema->attribute(g.attr).name + ";";
  }
  out += "WIN:";
  for (const auto& s : q.sources()) {
    out += s.from.stream + "=" + std::to_string(s.from.window.size) + ";";
  }
  return out;
}

}  // namespace

std::string MergeSignature(const AnalyzedQuery& q) {
  std::vector<std::string> streams;
  for (const auto& s : q.sources()) streams.push_back(s.from.stream);
  std::sort(streams.begin(), streams.end());
  std::string out = StrJoin(streams, ",");
  out += "|J:";
  for (const auto& j : CanonicalJoins(q)) {
    out += j.first.first + "." + j.first.second + "=" + j.second.first + "." +
           j.second.second + ";";
  }
  out += "|R:";
  for (const auto& r : CanonicalResiduals(q)) out += r + ";";
  out += "|";
  out += AggSignature(q);
  return out;
}

std::optional<std::vector<size_t>> MergeAlignment(const AnalyzedQuery& a,
                                                  const AnalyzedQuery& b) {
  auto align = AlignSources(a, b);
  if (!align.has_value()) return std::nullopt;
  for (size_t i = 0; i < a.sources().size(); ++i) {
    const ConjunctiveClause& sa = a.local_selection(i);
    const ConjunctiveClause& sb = b.local_selection((*align)[i]);
    if (!a.is_aggregate() && !sa.has_residual() && !sb.has_residual()) {
      continue;
    }
    if (!ClauseImplies(sa, sb) || !ClauseImplies(sb, sa)) return std::nullopt;
  }
  return align;
}

bool MergeCompatible(const AnalyzedQuery& a, const AnalyzedQuery& b) {
  return MergeSignature(a) == MergeSignature(b) &&
         MergeAlignment(a, b).has_value();
}

Result<AnalyzedQuery> ComposeRepresentative(
    const std::vector<const AnalyzedQuery*>& members, const Catalog& catalog,
    const std::string& result_name) {
  if (members.empty()) {
    return Status::InvalidArgument("no members to merge");
  }
  const AnalyzedQuery& base = *members[0];

  // Every member must be MergeCompatible with the base; its alignment is
  // kept (align[m][k]: the base index of member m's source k) and inverted
  // once (member_source[m * num_sources + i]: the index of base source i
  // within member m). The base's signature is computed once, and only when
  // there is a second member to compare.
  const size_t num_sources = base.sources().size();
  std::string signature;
  std::vector<std::vector<size_t>> align(members.size());
  std::vector<size_t> member_source(members.size() * num_sources);
  for (size_t m = 0; m < members.size(); ++m) {
    if (m == 1) signature = MergeSignature(base);
    auto a = MergeAlignment(*members[m], base);
    if (!a.has_value() ||
        (m > 0 && MergeSignature(*members[m]) != signature)) {
      return Status::InvalidArgument("members are not merge-compatible");
    }
    align[m] = std::move(*a);
    for (size_t k = 0; k < num_sources; ++k) {
      member_source[m * num_sources + align[m][k]] = k;
    }
  }

  // Aggregate groups: all members equivalent; the representative is the
  // base re-analyzed under the new result name.
  if (base.is_aggregate()) {
    return Analyze(base.ast(), catalog, result_name);
  }

  // ---- SPJ merge ----
  // Per-source merged window (max) and selection hull.
  std::vector<Duration> windows(num_sources, 0);
  std::vector<ConjunctiveClause> hulls(num_sources);
  std::vector<bool> windows_differ(num_sources, false);
  std::vector<bool> selections_differ(num_sources, false);
  for (size_t i = 0; i < num_sources; ++i) {
    Duration w = 0;
    std::vector<ConjunctiveClause> clauses;
    for (size_t m = 0; m < members.size(); ++m) {
      const size_t mi = member_source[m * num_sources + i];
      Duration mw = members[m]->WindowSize(mi);
      if (m == 0) {
        w = mw;
      } else if (mw != w) {
        windows_differ[i] = true;
        if (mw == kInfiniteDuration || w == kInfiniteDuration) {
          w = kInfiniteDuration;
        } else {
          w = std::max(w, mw);
        }
      }
      clauses.push_back(members[m]->local_selection(mi));
    }
    windows[i] = w;
    hulls[i] = ClauseHullMany(clauses);
    for (const auto& c : clauses) {
      if (!ClauseImplies(hulls[i], c)) {
        selections_differ[i] = true;
        break;
      }
    }
  }

  // Union of projected (source, attr) pairs, plus re-filtering needs.
  std::vector<std::set<std::string>> projected(num_sources);
  for (size_t m = 0; m < members.size(); ++m) {
    for (const auto& c : members[m]->output_columns()) {
      size_t bi = align[m][c.source];
      projected[bi].insert(
          members[m]->sources()[c.source].schema->attribute(c.attr).name);
    }
  }
  for (size_t i = 0; i < num_sources; ++i) {
    if (selections_differ[i]) {
      // Every attribute any member constrains may need re-filtering.
      for (size_t m = 0; m < members.size(); ++m) {
        for (const auto& [attr, c] :
             members[m]->local_selection(member_source[m * num_sources + i])
                 .constraints()) {
          projected[i].insert(attr);
        }
      }
    }
  }
  bool any_window_differs =
      std::any_of(windows_differ.begin(), windows_differ.end(),
                  [](bool b) { return b; });
  if (any_window_differs && num_sources > 1) {
    for (size_t i = 0; i < num_sources; ++i) {
      if (!base.sources()[i].schema->HasAttribute("timestamp")) {
        return Status::FailedPrecondition(
            "window re-tightening requires a 'timestamp' attribute on " +
            base.sources()[i].from.stream);
      }
      projected[i].insert("timestamp");
    }
  }

  // ---- Build the representative's AST ----
  ParsedQuery ast;
  for (size_t i = 0; i < num_sources; ++i) {
    FromItem item = base.sources()[i].from;
    item.window = WindowSpec{windows[i]};
    ast.from.push_back(std::move(item));
  }
  for (size_t i = 0; i < num_sources; ++i) {
    // Deterministic order: schema attribute order.
    for (const auto& def : base.sources()[i].schema->attributes()) {
      if (projected[i].count(def.name) == 0) continue;
      SelectItem item;
      item.kind = SelectItem::Kind::kColumn;
      item.qualifier = base.sources()[i].alias();
      item.name = def.name;
      ast.select.push_back(std::move(item));
    }
  }
  if (ast.select.empty()) {
    return Status::Internal("representative projects no columns");
  }

  ExprPtr where;
  for (size_t i = 0; i < num_sources; ++i) {
    if (hulls[i].IsTautology()) continue;
    // Qualify the hull's bare attribute names with the source alias.
    const std::string& alias = base.sources()[i].alias();
    for (const auto& [attr, c] : hulls[i].constraints()) {
      where = ConjoinNullable(
          where, ConstraintToExpr(MakeColumn(alias, attr), c));
    }
    // Merge-compatibility guarantees equal residuals; they carry bare
    // names, so requalify them with the alias.
    auto with_alias = [&alias](const ColumnRefExpr& col) {
      return col.qualifier().empty() ? alias : col.qualifier();
    };
    for (const auto& r : hulls[i].residual()) {
      where = ConjoinNullable(where, RewriteColumns(r, with_alias));
    }
  }
  for (const auto& j : base.equi_joins()) {
    const auto& ls = base.sources()[j.left_source];
    const auto& rs = base.sources()[j.right_source];
    where = ConjoinNullable(
        where, MakeCompare(CompareOp::kEq,
                           MakeColumn(ls.alias(),
                                      ls.schema->attribute(j.left_attr).name),
                           MakeColumn(
                               rs.alias(),
                               rs.schema->attribute(j.right_attr).name)));
  }
  for (const auto& r : base.cross_residual()) {
    where = ConjoinNullable(where, r);
  }
  ast.where = where;

  COSMOS_ASSIGN_OR_RETURN(AnalyzedQuery rep,
                          Analyze(ast, catalog, result_name));
  // Safety net: the representative must contain every member.
  for (const auto* m : members) {
    if (!QueryContains(rep, *m)) {
      return Status::Internal(
          "composed representative does not contain a member: " +
          Unparse(rep));
    }
  }
  return rep;
}

}  // namespace cosmos
