#include "core/profile_composer.h"

#include "common/string_util.h"
#include "expr/implication.h"

namespace cosmos {

Profile ComposeSourceProfile(const AnalyzedQuery& query) {
  Profile profile;
  for (size_t i = 0; i < query.sources().size(); ++i) {
    const auto& src = query.sources()[i];
    profile.AddStream(src.from.stream, query.ReferencedAttributes(i));
    const ConjunctiveClause& sel = query.local_selection(i);
    if (sel.IsTautology()) continue;
    // Paper §3.1: a profile's F is a *disjunction* of conjunctive filters.
    // A selection with OR residuals expands into one filter per DNF clause;
    // anything DNF cannot normalize (NOT over compounds) stays a single
    // filter whose residual is evaluated as an expression.
    bool expanded = false;
    if (sel.has_residual()) {
      auto dnf = ToDnf(sel.ToExpr());
      if (dnf.ok() && dnf->size() > 1) {
        for (auto& clause : *dnf) {
          profile.AddFilter(Filter(src.from.stream, std::move(clause)));
        }
        expanded = true;
      }
    }
    if (!expanded) {
      profile.AddFilter(Filter(src.from.stream, sel));
    }
  }
  return profile;
}

Profile ComposeWholeStreamProfile(const std::string& result_stream) {
  Profile profile;
  profile.AddStream(result_stream, {});  // all attributes, no filter
  return profile;
}

namespace {

// The representative's output attribute name for (rep source, attr index),
// or empty when the representative does not project it.
std::string RepOutputName(const AnalyzedQuery& rep, size_t source,
                          size_t attr) {
  for (const auto& c : rep.output_columns()) {
    if (c.source == source && c.attr == attr) return c.out_name;
  }
  return "";
}

std::string RepOutputNameByAttr(const AnalyzedQuery& rep, size_t source,
                                const std::string& attr_name) {
  auto idx = rep.sources()[source].schema->IndexOf(attr_name);
  if (!idx.has_value()) return "";
  return RepOutputName(rep, source, *idx);
}

}  // namespace

Result<std::vector<std::string>> UserColumnRepNames(
    const AnalyzedQuery& user, const AnalyzedQuery& rep) {
  auto align = AlignSources(user, rep);
  if (!align.has_value()) {
    return Status::InvalidArgument(
        "user query and representative are over different streams");
  }
  std::vector<std::string> names;
  if (user.is_aggregate()) {
    for (const auto& def : rep.output_schema()->attributes()) {
      names.push_back(def.name);
    }
    return names;
  }
  names.reserve(user.output_columns().size());
  for (const auto& c : user.output_columns()) {
    size_t rep_source = (*align)[c.source];
    const std::string& attr_name =
        user.sources()[c.source].schema->attribute(c.attr).name;
    std::string out = RepOutputNameByAttr(rep, rep_source, attr_name);
    if (out.empty()) {
      return Status::Internal(StrFormat(
          "representative does not project '%s'", attr_name.c_str()));
    }
    names.push_back(std::move(out));
  }
  return names;
}

Result<TupleTarget> ComposeUserTarget(const AnalyzedQuery& user,
                                      const AnalyzedQuery& rep) {
  COSMOS_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          UserColumnRepNames(user, rep));
  return TupleTarget{user.output_schema(), std::move(names)};
}

Result<Profile> ComposeUserProfile(const AnalyzedQuery& user,
                                   const AnalyzedQuery& rep) {
  auto align = AlignSources(user, rep);
  if (!align.has_value()) {
    return Status::InvalidArgument(
        "user query and representative are over different streams");
  }
  const std::string& stream = rep.output_schema()->stream_name();

  Profile profile;

  // ---- Projection P: the user's output columns in rep naming ----
  if (user.is_aggregate()) {
    // Group mates are equivalent; take the whole result row.
    profile.AddStream(stream, {});
  } else {
    COSMOS_ASSIGN_OR_RETURN(std::vector<std::string> projection,
                            UserColumnRepNames(user, rep));
    profile.AddStream(stream, std::move(projection));
  }

  // ---- Filter F: re-tighten the loosened constraints ----
  ConjunctiveClause clause;
  bool any_constraint = false;

  for (size_t i = 0; i < user.sources().size(); ++i) {
    size_t ri = (*align)[i];
    const ConjunctiveClause& user_sel = user.local_selection(i);
    const ConjunctiveClause& rep_sel = rep.local_selection(ri);
    for (const auto& [attr, c] : user_sel.constraints()) {
      // Skip constraints the representative already enforces exactly.
      AttrConstraint rep_c = rep_sel.ConstraintFor(attr);
      bool rep_enforces = rep_c.interval == c.interval &&
                          rep_c.eq.has_value() == c.eq.has_value() &&
                          (!c.eq.has_value() || *rep_c.eq == *c.eq) &&
                          rep_c.neq == c.neq;
      if (rep_enforces) continue;
      std::string out = RepOutputNameByAttr(rep, ri, attr);
      if (out.empty()) {
        return Status::Internal(StrFormat(
            "representative does not project constrained attribute '%s'",
            attr.c_str()));
      }
      if (!c.interval.IsAll()) clause.ConstrainInterval(out, c.interval);
      if (c.eq.has_value()) clause.ConstrainEquals(out, *c.eq);
      for (const auto& v : c.neq) clause.ConstrainNotEquals(out, v);
      any_constraint = true;
    }
    // Residual local conjuncts (rare; merge-compatibility guarantees the
    // representative enforces them when present).
  }

  // ---- Window re-tightening (Lemma 1) ----
  if (!user.is_aggregate() && user.sources().size() == 2) {
    Duration t0 = user.WindowSize(0);
    Duration t1 = user.WindowSize(1);
    size_t r0 = (*align)[0];
    size_t r1 = (*align)[1];
    bool tighter0 = t0 != rep.WindowSize(r0);
    bool tighter1 = t1 != rep.WindowSize(r1);
    if (tighter0 || tighter1) {
      std::string ts0 = RepOutputNameByAttr(rep, r0, "timestamp");
      std::string ts1 = RepOutputNameByAttr(rep, r1, "timestamp");
      if (ts0.empty() || ts1.empty()) {
        return Status::Internal(
            "representative does not project timestamps needed for window "
            "re-tightening");
      }
      // Lemma 1: -T0 <= ts0 - ts1 <= T1  (timestamps in microseconds).
      ExprPtr diff = MakeArith(ArithOp::kSub, MakeColumn(ts0),
                               MakeColumn(ts1));
      if (t0 != kInfiniteDuration) {
        clause.AddResidual(MakeCompare(CompareOp::kGe, diff,
                                       MakeLiteral(Value(-t0))));
      }
      if (t1 != kInfiniteDuration) {
        clause.AddResidual(
            MakeCompare(CompareOp::kLe, diff, MakeLiteral(Value(t1))));
      }
      any_constraint = true;
    }
  }

  if (any_constraint) {
    profile.AddFilter(Filter(stream, std::move(clause)));
  }
  return profile;
}

}  // namespace cosmos
