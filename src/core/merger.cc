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

// Canonical alias-free join representation (same as containment.cc's).
using JoinEnd = std::pair<std::string, std::string>;
using CanonicalJoin = std::pair<JoinEnd, JoinEnd>;

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

// Residuals rendered alias-free (qualifier replaced by the stream name) and
// sorted, for structural comparison across differently-aliased queries.
std::multiset<std::string> CanonicalResiduals(const AnalyzedQuery& q) {
  std::map<std::string, std::string> alias_to_stream;
  for (const auto& s : q.sources()) {
    alias_to_stream[s.alias()] = s.from.stream;
  }
  struct Renderer {
    const std::map<std::string, std::string>& m;
    std::string Render(const ExprPtr& e) const {
      if (e->kind() == ExprKind::kColumnRef) {
        const auto& col = static_cast<const ColumnRefExpr&>(*e);
        auto it = m.find(col.qualifier());
        std::string q = it == m.end() ? col.qualifier() : it->second;
        return q.empty() ? col.name() : q + "." + col.name();
      }
      if (e->kind() == ExprKind::kComparison) {
        const auto& c = static_cast<const ComparisonExpr&>(*e);
        return Render(c.lhs()) + CompareOpToString(c.op()) + Render(c.rhs());
      }
      if (e->kind() == ExprKind::kArithmetic) {
        // Appended piecewise: GCC 12's -Wrestrict misfires on the chained
        // operator+ form at -O3.
        const auto& a = static_cast<const ArithmeticExpr&>(*e);
        const char* ops[] = {"+", "-", "*", "/"};
        std::string out = "(";
        out += Render(a.lhs());
        out += ops[static_cast<int>(a.op())];
        out += Render(a.rhs());
        out += ')';
        return out;
      }
      if (e->kind() == ExprKind::kLogical) {
        const auto& l = static_cast<const LogicalExpr&>(*e);
        std::string out = l.op() == LogicalOp::kAnd
                              ? "AND("
                              : (l.op() == LogicalOp::kOr ? "OR(" : "NOT(");
        for (const auto& ch : l.children()) out += Render(ch) + ";";
        return out + ")";
      }
      return e->ToString();
    }
  } renderer{alias_to_stream};
  std::multiset<std::string> out;
  for (const auto& r : q.cross_residual()) out.insert(renderer.Render(r));
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

bool MergeCompatible(const AnalyzedQuery& a, const AnalyzedQuery& b) {
  auto align = AlignSources(a, b);
  if (!align.has_value()) return false;
  if (a.is_aggregate() != b.is_aggregate()) return false;
  if (CanonicalJoins(a) != CanonicalJoins(b)) return false;
  if (CanonicalResiduals(a) != CanonicalResiduals(b)) return false;
  // Local selections with residual conjuncts are opaque to the hull;
  // require them to be empty (workloads never produce them) unless equal.
  for (size_t i = 0; i < a.sources().size(); ++i) {
    if (!a.local_selection(i).residual().empty() ||
        !b.local_selection((*align)[i]).residual().empty()) {
      // Conservative: only mergeable when equivalent.
      if (!ClauseImplies(a.local_selection(i),
                         b.local_selection((*align)[i])) ||
          !ClauseImplies(b.local_selection((*align)[i]),
                         a.local_selection(i))) {
        return false;
      }
    }
  }
  if (a.is_aggregate()) {
    // Theorem 2 (sound form): equal windows and equivalent selections.
    if (AggSignature(a) != AggSignature(b)) return false;
    for (size_t i = 0; i < a.sources().size(); ++i) {
      size_t j = (*align)[i];
      if (a.WindowSize(i) != b.WindowSize(j)) return false;
      if (!ClauseImplies(a.local_selection(i), b.local_selection(j)) ||
          !ClauseImplies(b.local_selection(j), a.local_selection(i))) {
        return false;
      }
    }
    if (!QueryContains(a, b) || !QueryContains(b, a)) {
      // Projection may still differ; aggregates project group cols + aggs
      // only, so containment both ways reduces to the checks above. Keep
      // the belt-and-braces check cheap by not failing here.
    }
  }
  return true;
}

bool SplittableFrom(const AnalyzedQuery& user, const AnalyzedQuery& rep) {
  auto align = AlignSources(user, rep);
  if (!align.has_value()) return false;
  if (user.is_aggregate()) return true;  // group mates are equivalent

  auto rep_projects = [&rep](size_t source, const std::string& attr) {
    auto idx = rep.sources()[source].schema->IndexOf(attr);
    if (!idx.has_value()) return false;
    for (const auto& c : rep.output_columns()) {
      if (c.source == source && c.attr == *idx) return true;
    }
    return false;
  };

  for (size_t i = 0; i < user.sources().size(); ++i) {
    size_t ri = (*align)[i];
    const auto& user_sel = user.local_selection(i);
    const auto& rep_sel = rep.local_selection(ri);
    for (const auto& [attr, c] : user_sel.constraints()) {
      AttrConstraint rep_c = rep_sel.ConstraintFor(attr);
      bool rep_enforces = rep_c.interval == c.interval &&
                          rep_c.eq.has_value() == c.eq.has_value() &&
                          (!c.eq.has_value() || *rep_c.eq == *c.eq) &&
                          rep_c.neq == c.neq;
      if (!rep_enforces && !rep_projects(ri, attr)) return false;
    }
  }
  if (user.sources().size() == 2) {
    bool windows_differ = false;
    for (size_t i = 0; i < 2; ++i) {
      if (user.WindowSize(i) != rep.WindowSize((*align)[i])) {
        windows_differ = true;
      }
    }
    if (windows_differ) {
      for (size_t i = 0; i < 2; ++i) {
        if (!rep_projects((*align)[i], "timestamp")) return false;
      }
    }
  }
  return true;
}

Result<AnalyzedQuery> ComposeRepresentative(
    const std::vector<const AnalyzedQuery*>& members, const Catalog& catalog,
    const std::string& result_name) {
  if (members.empty()) {
    return Status::InvalidArgument("no members to merge");
  }
  const AnalyzedQuery& base = *members[0];

  // Alignment of every member onto the base.
  std::vector<std::vector<size_t>> align(members.size());
  for (size_t m = 0; m < members.size(); ++m) {
    auto a = AlignSources(*members[m], base);
    if (!a.has_value()) {
      return Status::InvalidArgument(
          "members are not over the same stream set");
    }
    align[m] = *a;
    if (m > 0 && !MergeCompatible(base, *members[m])) {
      return Status::InvalidArgument("members are not merge-compatible");
    }
  }

  const size_t num_sources = base.sources().size();

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
      // Index of base source i within member m.
      size_t mi = 0;
      bool found = false;
      for (size_t k = 0; k < num_sources; ++k) {
        if (align[m][k] == i) {
          mi = k;
          found = true;
          break;
        }
      }
      if (!found) return Status::Internal("alignment hole");
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
        size_t mi = 0;
        for (size_t k = 0; k < num_sources; ++k) {
          if (align[m][k] == i) mi = k;
        }
        for (const auto& [attr, c] :
             members[m]->local_selection(mi).constraints()) {
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
    for (const auto& r : hulls[i].residual()) {
      // Merge-compatibility guarantees equal residuals; they carry bare
      // names, so requalify them with the alias.
      struct Q {
        const std::string& alias;
        ExprPtr R(const ExprPtr& e) const {
          switch (e->kind()) {
            case ExprKind::kLiteral:
              return e;
            case ExprKind::kColumnRef: {
              const auto& col = static_cast<const ColumnRefExpr&>(*e);
              if (!col.qualifier().empty()) return e;
              return MakeColumn(alias, col.name());
            }
            case ExprKind::kComparison: {
              const auto& c = static_cast<const ComparisonExpr&>(*e);
              return MakeCompare(c.op(), R(c.lhs()), R(c.rhs()));
            }
            case ExprKind::kLogical: {
              const auto& l = static_cast<const LogicalExpr&>(*e);
              std::vector<ExprPtr> children;
              for (const auto& ch : l.children()) children.push_back(R(ch));
              if (l.op() == LogicalOp::kNot) return MakeNot(children[0]);
              return l.op() == LogicalOp::kAnd ? MakeAnd(std::move(children))
                                               : MakeOr(std::move(children));
            }
            case ExprKind::kArithmetic: {
              const auto& a = static_cast<const ArithmeticExpr&>(*e);
              return MakeArith(a.op(), R(a.lhs()), R(a.rhs()));
            }
          }
          return e;
        }
      } q{alias};
      where = ConjoinNullable(where, q.R(r));
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
