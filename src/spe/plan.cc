#include "spe/plan.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "spe/aggregate.h"
#include "spe/join.h"

namespace cosmos {
namespace {

// The projected input schema of source `i`: the catalog schema narrowed to
// the attributes the query references, in schema order. Named by the alias
// so diagnostics read well.
std::shared_ptr<const Schema> ExpectedInputSchema(const AnalyzedQuery& q,
                                                  size_t i) {
  const ResolvedSource& src = q.sources()[i];
  std::vector<std::string> wanted = q.ReferencedAttributes(i);
  std::vector<AttributeDef> attrs;
  for (const auto& def : src.schema->attributes()) {
    if (std::find(wanted.begin(), wanted.end(), def.name) != wanted.end()) {
      attrs.push_back(def);
    }
  }
  return std::make_shared<Schema>(src.from.stream, std::move(attrs));
}

}  // namespace

void QueryPlan::SetSink(Operator::Sink sink) {
  // Wrap to count output tuples.
  terminal_->SetSink([this, sink = std::move(sink)](const Tuple& t) {
    ++tuples_out_;
    if (sink) sink(t);
  });
}

void QueryPlan::Push(size_t port, const Tuple& tuple) {
  COSMOS_DCHECK_LT(port, ports_.size());
  ++tuples_in_;
  Port& in = ports_[port];
  Tuple scratch;
  const Tuple* adapted = in.plans.Map(tuple, in.target, &scratch);
  if (adapted != nullptr) in.select->Push(0, *adapted);
}

Result<std::unique_ptr<QueryPlan>> QueryPlan::Build(
    const AnalyzedQuery& query) {
  const size_t n = query.sources().size();
  if (n == 0 || n > 8) {
    return Status::Unimplemented(
        StrFormat("plans support 1-8 sources, got %zu", n));
  }
  if (query.is_aggregate() && n != 1) {
    return Status::Unimplemented(
        "aggregates are supported over a single source");
  }

  auto plan = std::unique_ptr<QueryPlan>(new QueryPlan());
  plan->output_schema_ = query.output_schema();

  // Per source: input port -> Select.
  for (size_t i = 0; i < n; ++i) {
    auto expected = ExpectedInputSchema(query, i);
    plan->input_streams_.push_back(query.sources()[i].from.stream);
    plan->input_schemas_.push_back(expected);

    auto select =
        std::make_unique<SelectOperator>(query.local_selection(i).ToExpr());
    Port& port = plan->ports_.emplace_back();
    for (const auto& def : expected->attributes()) {
      port.target.source_names.push_back(def.name);
    }
    port.target.schema = std::move(expected);
    port.select = select.get();
    plan->owned_.push_back(std::move(select));
  }

  Operator* pre_output = nullptr;
  std::shared_ptr<const Schema> pre_schema;

  if (n >= 2) {
    // Window join over all sources (see spe/join.h).
    std::vector<std::pair<const Schema*, std::string>> parts;
    std::vector<Duration> windows;
    for (size_t i = 0; i < n; ++i) {
      parts.emplace_back(plan->input_schemas_[i].get(),
                         query.sources()[i].alias());
      windows.push_back(query.WindowSize(i));
    }
    pre_schema = MakeJoinedSchema(
        parts, query.output_schema()->stream_name() + "_joined");
    std::vector<WindowJoinOperator::KeyConstraint> keys;
    for (const auto& j : query.equi_joins()) {
      const std::string& lname =
          query.sources()[j.left_source].schema->attribute(j.left_attr).name;
      const std::string& rname = query.sources()[j.right_source]
                                     .schema->attribute(j.right_attr)
                                     .name;
      auto li = plan->input_schemas_[j.left_source]->IndexOf(lname);
      auto ri = plan->input_schemas_[j.right_source]->IndexOf(rname);
      if (!li || !ri) {
        return Status::Internal("join key missing from projected schema");
      }
      keys.push_back(WindowJoinOperator::KeyConstraint{
          j.left_source, *li, j.right_source, *ri});
    }
    ExprPtr residual;
    for (const auto& r : query.cross_residual()) {
      residual = ConjoinNullable(residual, r);
    }
    auto join = std::make_unique<WindowJoinOperator>(
        std::move(windows), std::move(keys), std::move(residual),
        pre_schema);
    WindowJoinOperator* join_ptr = join.get();
    for (size_t i = 0; i < n; ++i) {
      plan->ports_[i].select->SetSink(
          [join_ptr, i](const Tuple& t) { join_ptr->Push(i, t); });
    }
    pre_output = join.get();
    plan->owned_.push_back(std::move(join));
  } else {
    pre_output = plan->ports_[0].select;
    pre_schema = plan->input_schemas_[0];
  }

  if (query.is_aggregate()) {
    std::vector<size_t> group_keys;
    for (const auto& g : query.group_by()) {
      const std::string& name =
          query.sources()[g.source].schema->attribute(g.attr).name;
      auto idx = pre_schema->IndexOf(name);
      if (!idx) return Status::Internal("group key missing from input");
      group_keys.push_back(*idx);
    }
    std::vector<AggSpec> aggs;
    for (const auto& a : query.aggregates()) {
      AggSpec spec;
      spec.func = a.func;
      spec.star = a.star;
      if (!a.star) {
        const std::string& name =
            query.sources()[a.source].schema->attribute(a.attr).name;
        auto idx = pre_schema->IndexOf(name);
        if (!idx) return Status::Internal("agg arg missing from input");
        spec.arg = *idx;
      }
      aggs.push_back(spec);
    }
    auto agg = std::make_unique<WindowAggregateOperator>(
        query.WindowSize(0), std::move(group_keys), std::move(aggs),
        query.output_schema());
    WindowAggregateOperator* agg_ptr = agg.get();
    pre_output->SetSink([agg_ptr](const Tuple& t) { agg_ptr->Push(0, t); });
    plan->terminal_ = agg.get();
    plan->owned_.push_back(std::move(agg));
    return plan;
  }

  // Final projection onto the output schema.
  std::vector<size_t> indices;
  for (const auto& c : query.output_columns()) {
    const std::string& bare =
        query.sources()[c.source].schema->attribute(c.attr).name;
    std::string lookup =
        (n >= 2) ? query.sources()[c.source].alias() + "." + bare : bare;
    auto idx = pre_schema->IndexOf(lookup);
    if (!idx) {
      return Status::Internal(
          StrFormat("output column '%s' missing from input", lookup.c_str()));
    }
    indices.push_back(*idx);
  }
  auto project = std::make_unique<ProjectOperator>(std::move(indices),
                                                   query.output_schema());
  ProjectOperator* project_ptr = project.get();
  pre_output->SetSink(
      [project_ptr](const Tuple& t) { project_ptr->Push(0, t); });
  plan->terminal_ = project.get();
  plan->owned_.push_back(std::move(project));
  return plan;
}

}  // namespace cosmos
