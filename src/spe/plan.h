#ifndef COSMOS_SPE_PLAN_H_
#define COSMOS_SPE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "cbn/projection.h"
#include "query/analyzer.h"
#include "spe/operator.h"

namespace cosmos {

// An executable operator pipeline compiled from an AnalyzedQuery:
//
//   per source:  input port -> Select(local selection)
//   then:        [WindowJoin]  (two sources)
//                [WindowAggregate] (single source with aggregates)
//   finally:     Project -> result stream
//
// Supported shapes: 1-2 sources, select-project(-join), single-source
// grouped aggregation. These cover every query the paper's examples and
// evaluation workloads use; anything else returns kUnimplemented.
class QueryPlan {
 public:
  static Result<std::unique_ptr<QueryPlan>> Build(const AnalyzedQuery& query);

  QueryPlan(const QueryPlan&) = delete;
  QueryPlan& operator=(const QueryPlan&) = delete;

  // The streams this plan consumes (parallel to sources()).
  const std::vector<std::string>& input_streams() const {
    return input_streams_;
  }

  // The exact (projected) schema the plan expects per input stream — also
  // the projection set the processor's source profile should request.
  const std::vector<std::shared_ptr<const Schema>>& input_schemas() const {
    return input_schemas_;
  }

  const std::shared_ptr<const Schema>& output_schema() const {
    return output_schema_;
  }

  // Result tuples of the plan are delivered here.
  void SetSink(Operator::Sink sink);

  // Pushes one source tuple into input `port` (an index into
  // input_streams()). The port maps it by name onto its input schema, in
  // one copy or none when the layouts are equal, and drops it when it
  // lacks an attribute the query references. A caller binds each stream it
  // feeds to that stream's ports once, when the plan is installed; a
  // stream consumed twice (self-join) is pushed on each of its ports.
  void Push(size_t port, const Tuple& tuple);

  uint64_t tuples_in() const { return tuples_in_; }
  uint64_t tuples_out() const { return tuples_out_; }

 private:
  QueryPlan() = default;

  // One input port per source index: its input schema as a target (by
  // its own names), the mapping plans onto it and its Select operator.
  struct Port {
    TupleTarget target;
    ProjectionCache plans;
    Operator* select = nullptr;
  };

  std::vector<std::unique_ptr<Operator>> owned_;
  std::vector<Port> ports_;
  std::vector<std::string> input_streams_;
  std::vector<std::shared_ptr<const Schema>> input_schemas_;
  Operator* terminal_ = nullptr;
  std::shared_ptr<const Schema> output_schema_;
  uint64_t tuples_in_ = 0;
  uint64_t tuples_out_ = 0;
};

}  // namespace cosmos

#endif  // COSMOS_SPE_PLAN_H_
