#include "query/unparser.h"

#include "common/string_util.h"

namespace cosmos {
namespace {

// Qualifies the attribute names of a local-selection clause with `alias`.
ExprPtr QualifiedClauseExpr(const ConjunctiveClause& clause,
                            const std::string& alias) {
  ConjunctiveClause qualified;
  for (const auto& [attr, c] : clause.constraints()) {
    std::string name = alias + "." + attr;
    if (!c.interval.IsAll()) qualified.ConstrainInterval(name, c.interval);
    if (c.eq.has_value()) qualified.ConstrainEquals(name, *c.eq);
    for (const auto& v : c.neq) qualified.ConstrainNotEquals(name, v);
  }
  ExprPtr expr = qualified.ToExpr();
  // Residual conjuncts carry bare names; rebuild them qualified.
  auto with_alias = [&alias](const ColumnRefExpr& col) {
    return col.qualifier().empty() ? alias : col.qualifier();
  };
  for (const auto& r : clause.residual()) {
    expr = ConjoinNullable(expr, RewriteColumns(r, with_alias));
  }
  return expr;
}

}  // namespace

ExprPtr RebuildWhere(const AnalyzedQuery& query) {
  ExprPtr where;
  for (size_t i = 0; i < query.sources().size(); ++i) {
    const ConjunctiveClause& sel = query.local_selection(i);
    if (sel.IsTautology()) continue;
    where = ConjoinNullable(
        where, QualifiedClauseExpr(sel, query.sources()[i].alias()));
  }
  for (const auto& j : query.equi_joins()) {
    const auto& ls = query.sources()[j.left_source];
    const auto& rs = query.sources()[j.right_source];
    where = ConjoinNullable(
        where,
        MakeCompare(CompareOp::kEq,
                    MakeColumn(ls.alias(),
                               ls.schema->attribute(j.left_attr).name),
                    MakeColumn(rs.alias(),
                               rs.schema->attribute(j.right_attr).name)));
  }
  for (const auto& r : query.cross_residual()) {
    where = ConjoinNullable(where, r);
  }
  return where;
}

std::string Unparse(const AnalyzedQuery& query) {
  std::string out = "SELECT ";
  std::vector<std::string> items;
  const bool multi = query.sources().size() > 1;

  if (query.is_aggregate()) {
    for (const auto& g : query.group_by()) {
      const auto& s = query.sources()[g.source];
      std::string ref =
          multi ? s.alias() + "." + s.schema->attribute(g.attr).name
                : s.schema->attribute(g.attr).name;
      items.push_back(ref);
    }
    for (const auto& a : query.aggregates()) {
      std::string arg = "*";
      if (!a.star) {
        const auto& s = query.sources()[a.source];
        arg = multi ? s.alias() + "." + s.schema->attribute(a.attr).name
                    : s.schema->attribute(a.attr).name;
      }
      items.push_back(StrFormat("%s(%s) AS %s", AggFuncToString(a.func),
                                arg.c_str(), a.out_name.c_str()));
    }
  } else {
    for (const auto& c : query.output_columns()) {
      const auto& s = query.sources()[c.source];
      std::string ref =
          multi ? s.alias() + "." + s.schema->attribute(c.attr).name
                : s.schema->attribute(c.attr).name;
      // Emit an alias when the output name differs from the default.
      std::string def_name =
          multi ? s.alias() + "." + s.schema->attribute(c.attr).name
                : s.schema->attribute(c.attr).name;
      if (c.out_name != def_name) {
        ref += " AS " + c.out_name;
      }
      items.push_back(std::move(ref));
    }
  }
  out += StrJoin(items, ", ");

  out += " FROM ";
  std::vector<std::string> froms;
  for (const auto& s : query.sources()) {
    std::string f = s.from.stream + " " + s.from.window.ToString();
    if (s.alias() != s.from.stream) f += " " + s.alias();
    froms.push_back(std::move(f));
  }
  out += StrJoin(froms, ", ");

  ExprPtr where = RebuildWhere(query);
  if (where != nullptr) out += " WHERE " + where->ToString();

  if (!query.group_by().empty()) {
    std::vector<std::string> groups;
    for (const auto& g : query.group_by()) {
      const auto& s = query.sources()[g.source];
      groups.push_back(multi
                           ? s.alias() + "." + s.schema->attribute(g.attr).name
                           : s.schema->attribute(g.attr).name);
    }
    out += " GROUP BY " + StrJoin(groups, ", ");
  }
  return out;
}

}  // namespace cosmos
