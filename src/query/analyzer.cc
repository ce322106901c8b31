#include "query/analyzer.h"

#include <set>

#include "common/string_util.h"
#include "query/parser.h"

namespace cosmos {

int AnalyzedQuery::SourceIndex(const std::string& alias) const {
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].alias() == alias) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string> AnalyzedQuery::ReferencedAttributes(size_t i) const {
  std::set<std::string> names;
  const std::string& alias = sources_[i].alias();

  for (const auto& col : output_columns_) {
    if (col.source == i) names.insert(sources_[i].schema->attribute(col.attr).name);
  }
  for (const auto& col : group_by_) {
    if (col.source == i) names.insert(sources_[i].schema->attribute(col.attr).name);
  }
  for (const auto& agg : aggregates_) {
    if (!agg.star && agg.source == i) {
      names.insert(sources_[i].schema->attribute(agg.attr).name);
    }
  }
  for (const auto& [attr, c] : local_selections_[i].constraints()) {
    names.insert(attr);
  }
  for (const auto& r : local_selections_[i].residual()) {
    std::vector<const ColumnRefExpr*> cols;
    CollectColumns(r, &cols);
    for (const auto* c : cols) names.insert(c->name());
  }
  for (const auto& j : equi_joins_) {
    if (j.left_source == i) {
      names.insert(sources_[i].schema->attribute(j.left_attr).name);
    }
    if (j.right_source == i) {
      names.insert(sources_[i].schema->attribute(j.right_attr).name);
    }
  }
  for (const auto& r : cross_residual_) {
    std::vector<const ColumnRefExpr*> cols;
    CollectColumns(r, &cols);
    for (const auto* c : cols) {
      if (c->qualifier() == alias) names.insert(c->name());
    }
  }
  return std::vector<std::string>(names.begin(), names.end());
}

namespace internal_analyzer {

class Analyzer {
 public:
  Analyzer(const ParsedQuery& parsed, const Catalog& catalog,
           const std::string& result_name)
      : catalog_(catalog), result_name_(result_name) {
    out_.ast_ = parsed;
  }

  Result<AnalyzedQuery> Run() {
    COSMOS_RETURN_IF_ERROR(ResolveSources());
    COSMOS_RETURN_IF_ERROR(ResolveWhere());
    COSMOS_RETURN_IF_ERROR(ResolveGroupBy());
    COSMOS_RETURN_IF_ERROR(ResolveSelect());
    COSMOS_RETURN_IF_ERROR(BuildOutputSchema());
    return std::move(out_);
  }

 private:
  // Resolves a (possibly unqualified) column reference to (source, attr).
  Result<std::pair<size_t, size_t>> ResolveRef(const std::string& qualifier,
                                               const std::string& name) {
    if (!qualifier.empty()) {
      int si = out_.SourceIndex(qualifier);
      if (si < 0) {
        return Status::NotFound(
            StrFormat("unknown alias '%s'", qualifier.c_str()));
      }
      auto ai = out_.sources_[si].schema->IndexOf(name);
      if (!ai.has_value()) {
        return Status::NotFound(StrFormat("attribute '%s' not in '%s'",
                                          name.c_str(), qualifier.c_str()));
      }
      return std::make_pair(static_cast<size_t>(si), *ai);
    }
    int found_source = -1;
    size_t found_attr = 0;
    for (size_t i = 0; i < out_.sources_.size(); ++i) {
      auto ai = out_.sources_[i].schema->IndexOf(name);
      if (ai.has_value()) {
        if (found_source >= 0) {
          return Status::InvalidArgument(
              StrFormat("ambiguous column '%s'", name.c_str()));
        }
        found_source = static_cast<int>(i);
        found_attr = *ai;
      }
    }
    if (found_source < 0) {
      return Status::NotFound(StrFormat("unknown column '%s'", name.c_str()));
    }
    return std::make_pair(static_cast<size_t>(found_source), found_attr);
  }

  Status ResolveSources() {
    if (out_.ast_.from.empty()) {
      return Status::InvalidArgument("query has no FROM clause");
    }
    std::set<std::string> aliases;
    for (const auto& item : out_.ast_.from) {
      COSMOS_ASSIGN_OR_RETURN(auto schema,
                              catalog_.LookupSchema(item.stream));
      const std::string& alias = item.EffectiveAlias();
      if (!aliases.insert(alias).second) {
        return Status::InvalidArgument(
            StrFormat("duplicate alias '%s'", alias.c_str()));
      }
      ResolvedSource src;
      src.from = item;
      src.schema = schema;
      out_.sources_.push_back(std::move(src));
    }
    out_.local_selections_.resize(out_.sources_.size());
    return Status::OK();
  }

  // Rewrites every column reference in `expr` to alias-qualified form,
  // failing on the first one that does not resolve.
  Result<ExprPtr> QualifyColumns(const ExprPtr& expr) {
    std::vector<const ColumnRefExpr*> cols;
    CollectColumns(expr, &cols);
    std::vector<std::string> aliases;
    aliases.reserve(cols.size());
    for (const auto* col : cols) {
      COSMOS_ASSIGN_OR_RETURN(auto ref,
                              ResolveRef(col->qualifier(), col->name()));
      aliases.push_back(out_.sources_[ref.first].alias());
    }
    // RewriteColumns visits the columns in CollectColumns' order.
    size_t next = 0;
    return RewriteColumns(
        expr, [&](const ColumnRefExpr&) { return aliases[next++]; });
  }

  // The set of source indexes referenced by `expr`.
  std::set<size_t> SourcesOf(const ExprPtr& expr) {
    std::vector<const ColumnRefExpr*> cols;
    CollectColumns(expr, &cols);
    std::set<size_t> out;
    for (const auto* c : cols) {
      int si = out_.SourceIndex(c->qualifier());
      if (si >= 0) out.insert(static_cast<size_t>(si));
    }
    return out;
  }

  // True when `expr` is an equi-join atom "a.x = b.y"; fills `join`.
  bool AsEquiJoin(const ExprPtr& expr, EquiJoin* join) {
    if (expr->kind() != ExprKind::kComparison) return false;
    const auto& c = static_cast<const ComparisonExpr&>(*expr);
    if (c.op() != CompareOp::kEq) return false;
    if (c.lhs()->kind() != ExprKind::kColumnRef ||
        c.rhs()->kind() != ExprKind::kColumnRef) {
      return false;
    }
    const auto& l = static_cast<const ColumnRefExpr&>(*c.lhs());
    const auto& r = static_cast<const ColumnRefExpr&>(*c.rhs());
    int ls = out_.SourceIndex(l.qualifier());
    int rs = out_.SourceIndex(r.qualifier());
    if (ls < 0 || rs < 0 || ls == rs) return false;
    auto la = out_.sources_[ls].schema->IndexOf(l.name());
    auto ra = out_.sources_[rs].schema->IndexOf(r.name());
    if (!la || !ra) return false;
    join->left_source = static_cast<size_t>(ls);
    join->left_attr = *la;
    join->right_source = static_cast<size_t>(rs);
    join->right_attr = *ra;
    return true;
  }

  Status ResolveWhere() {
    if (out_.ast_.where == nullptr) return Status::OK();
    COSMOS_ASSIGN_OR_RETURN(out_.normalized_where_,
                            QualifyColumns(out_.ast_.where));

    // Split the top-level conjunction.
    std::vector<ExprPtr> conjuncts;
    const ExprPtr& w = out_.normalized_where_;
    if (w->kind() == ExprKind::kLogical &&
        static_cast<const LogicalExpr&>(*w).op() == LogicalOp::kAnd) {
      conjuncts = static_cast<const LogicalExpr&>(*w).children();
    } else {
      conjuncts.push_back(w);
    }

    // Single-source conjuncts become local selections over bare names.
    auto unqualified = [](const ColumnRefExpr&) { return std::string(); };
    for (const auto& atom : conjuncts) {
      std::set<size_t> srcs = SourcesOf(atom);
      if (srcs.empty()) {
        // Constant conjunct; attach to source 0's residual for evaluation.
        out_.local_selections_[0].AddResidual(
            RewriteColumns(atom, unqualified));
        continue;
      }
      if (srcs.size() == 1) {
        size_t si = *srcs.begin();
        ExprPtr bare = RewriteColumns(atom, unqualified);
        COSMOS_ASSIGN_OR_RETURN(ConjunctiveClause piece,
                                ClauseFromExpr(bare));
        // Merge into the accumulated local selection.
        for (const auto& [attr, c] : piece.constraints()) {
          if (!c.interval.IsAll()) {
            out_.local_selections_[si].ConstrainInterval(attr, c.interval);
          }
          if (c.eq.has_value()) {
            out_.local_selections_[si].ConstrainEquals(attr, *c.eq);
          }
          for (const auto& v : c.neq) {
            out_.local_selections_[si].ConstrainNotEquals(attr, v);
          }
        }
        for (const auto& r : piece.residual()) {
          out_.local_selections_[si].AddResidual(r);
        }
        continue;
      }
      EquiJoin join;
      if (srcs.size() == 2 && AsEquiJoin(atom, &join)) {
        out_.equi_joins_.push_back(join);
        continue;
      }
      out_.cross_residual_.push_back(atom);
    }
    return Status::OK();
  }

  Status ResolveGroupBy() {
    for (const auto& g : out_.ast_.group_by) {
      const auto& col = static_cast<const ColumnRefExpr&>(*g);
      COSMOS_ASSIGN_OR_RETURN(auto ref,
                              ResolveRef(col.qualifier(), col.name()));
      OutputColumn oc;
      oc.source = ref.first;
      oc.attr = ref.second;
      oc.out_name = OutName(ref.first, ref.second);
      out_.group_by_.push_back(std::move(oc));
    }
    return Status::OK();
  }

  std::string OutName(size_t source, size_t attr) const {
    const auto& s = out_.sources_[source];
    if (out_.sources_.size() == 1) return s.schema->attribute(attr).name;
    return s.alias() + "." + s.schema->attribute(attr).name;
  }

  Status ResolveSelect() {
    bool has_agg = false;
    for (const auto& item : out_.ast_.select) {
      if (item.kind == SelectItem::Kind::kAggregate) has_agg = true;
    }

    for (const auto& item : out_.ast_.select) {
      switch (item.kind) {
        case SelectItem::Kind::kStar: {
          if (has_agg) {
            return Status::InvalidArgument(
                "SELECT * cannot be combined with aggregates");
          }
          for (size_t si = 0; si < out_.sources_.size(); ++si) {
            AppendAllColumns(si);
          }
          break;
        }
        case SelectItem::Kind::kQualifiedStar: {
          if (has_agg) {
            return Status::InvalidArgument(
                "alias.* cannot be combined with aggregates");
          }
          int si = out_.SourceIndex(item.qualifier);
          if (si < 0) {
            return Status::NotFound(
                StrFormat("unknown alias '%s'", item.qualifier.c_str()));
          }
          AppendAllColumns(static_cast<size_t>(si));
          break;
        }
        case SelectItem::Kind::kColumn: {
          COSMOS_ASSIGN_OR_RETURN(auto ref,
                                  ResolveRef(item.qualifier, item.name));
          OutputColumn oc;
          oc.source = ref.first;
          oc.attr = ref.second;
          oc.out_name = item.alias.empty() ? OutName(ref.first, ref.second)
                                           : item.alias;
          if (has_agg) {
            // Plain columns in an aggregate query must be grouping columns.
            bool is_group = false;
            for (const auto& g : out_.group_by_) {
              if (g.source == oc.source && g.attr == oc.attr) is_group = true;
            }
            if (!is_group) {
              return Status::InvalidArgument(StrFormat(
                  "column '%s' must appear in GROUP BY", oc.out_name.c_str()));
            }
            // Grouping columns are emitted via group_by_; skip duplicates.
            break;
          }
          out_.output_columns_.push_back(std::move(oc));
          break;
        }
        case SelectItem::Kind::kAggregate: {
          ResolvedAggregate agg;
          agg.func = item.func;
          agg.star = item.agg_star;
          std::string base_name;
          if (item.agg_star) {
            if (item.func != AggFunc::kCount) {
              return Status::InvalidArgument("only COUNT(*) supports '*'");
            }
            base_name = "count_star";
          } else {
            COSMOS_ASSIGN_OR_RETURN(auto ref,
                                    ResolveRef(item.qualifier, item.name));
            agg.source = ref.first;
            agg.attr = ref.second;
            const auto& attr_def =
                out_.sources_[agg.source].schema->attribute(agg.attr);
            if (item.func != AggFunc::kCount && item.func != AggFunc::kMin &&
                item.func != AggFunc::kMax) {
              if (attr_def.type != ValueType::kInt64 &&
                  attr_def.type != ValueType::kDouble) {
                return Status::InvalidArgument(
                    StrFormat("%s over non-numeric attribute '%s'",
                              AggFuncToString(item.func),
                              attr_def.name.c_str()));
              }
            }
            base_name = std::string(ToLower(AggFuncToString(item.func))) +
                        "_" + attr_def.name;
          }
          agg.out_name = item.alias.empty() ? base_name : item.alias;
          out_.aggregates_.push_back(std::move(agg));
          break;
        }
      }
    }
    if (out_.aggregates_.empty() && !out_.group_by_.empty()) {
      return Status::InvalidArgument("GROUP BY requires aggregates");
    }
    if (out_.output_columns_.empty() && out_.aggregates_.empty()) {
      return Status::InvalidArgument("empty SELECT list");
    }
    return Status::OK();
  }

  void AppendAllColumns(size_t si) {
    const auto& schema = out_.sources_[si].schema;
    for (size_t ai = 0; ai < schema->num_attributes(); ++ai) {
      OutputColumn oc;
      oc.source = si;
      oc.attr = ai;
      oc.out_name = OutName(si, ai);
      out_.output_columns_.push_back(std::move(oc));
    }
  }

  Status BuildOutputSchema() {
    std::vector<AttributeDef> attrs;
    if (out_.is_aggregate()) {
      for (const auto& g : out_.group_by_) {
        AttributeDef def = out_.sources_[g.source].schema->attribute(g.attr);
        def.name = g.out_name;
        attrs.push_back(std::move(def));
      }
      for (const auto& a : out_.aggregates_) {
        AttributeDef def;
        def.name = a.out_name;
        if (a.func == AggFunc::kCount) {
          def.type = ValueType::kInt64;
        } else if (a.star) {
          def.type = ValueType::kInt64;
        } else {
          const auto& arg =
              out_.sources_[a.source].schema->attribute(a.attr);
          def.type = (a.func == AggFunc::kAvg) ? ValueType::kDouble
                                               : arg.type;
        }
        attrs.push_back(std::move(def));
      }
    } else {
      for (const auto& c : out_.output_columns_) {
        AttributeDef def = out_.sources_[c.source].schema->attribute(c.attr);
        def.name = c.out_name;
        attrs.push_back(std::move(def));
      }
    }
    std::set<std::string> seen;
    for (const auto& def : attrs) {
      if (!seen.insert(def.name).second) {
        return Status::InvalidArgument(
            StrFormat("duplicate output column '%s'", def.name.c_str()));
      }
    }
    out_.output_schema_ =
        std::make_shared<Schema>(result_name_, std::move(attrs));
    return Status::OK();
  }

  const Catalog& catalog_;
  std::string result_name_;
  AnalyzedQuery out_;
};

}  // namespace internal_analyzer

Result<AnalyzedQuery> Analyze(const ParsedQuery& parsed,
                              const Catalog& catalog,
                              const std::string& result_name) {
  internal_analyzer::Analyzer a(parsed, catalog, result_name);
  return a.Run();
}

Result<AnalyzedQuery> ParseAndAnalyze(const std::string& cql,
                                      const Catalog& catalog,
                                      const std::string& result_name) {
  COSMOS_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(cql));
  return Analyze(parsed, catalog, result_name);
}

}  // namespace cosmos
