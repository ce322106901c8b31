#ifndef COSMOS_SPE_OPERATOR_H_
#define COSMOS_SPE_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "expr/evaluator.h"
#include "stream/tuple.h"

namespace cosmos {

// Push-based operator of the mini stream processing engine. Operators form
// a tree; each emits result tuples to its sink. Input arrives in
// non-decreasing event-time order per port (the engine replays sources in
// timestamp order); operators preserve that order on their output.
class Operator {
 public:
  using Sink = std::function<void(const Tuple&)>;

  virtual ~Operator() = default;

  void SetSink(Sink sink) { sink_ = std::move(sink); }

  // Pushes one tuple into input `port` (0 except for joins).
  virtual void Push(size_t port, const Tuple& tuple) = 0;

 protected:
  void Emit(const Tuple& tuple) {
    if (sink_) sink_(tuple);
  }

 private:
  Sink sink_;
};

// A predicate that binds itself against each distinct input schema on first
// sight (sources may deliver projected schemas that differ between runs).
class LazyPredicate {
 public:
  LazyPredicate() = default;
  explicit LazyPredicate(ExprPtr expr) : expr_(std::move(expr)) {}

  bool has_expr() const { return expr_ != nullptr; }

  // False also when the expression cannot be bound to the tuple's schema
  // (a required attribute was projected away): such tuples cannot satisfy
  // the predicate.
  bool Matches(const Tuple& tuple);

 private:
  ExprPtr expr_;
  // Keyed by pointer identity, but the shared_ptr key RETAINS the schema so
  // a freed schema's address can never be reused for a different layout
  // while its binding is cached.
  std::unordered_map<std::shared_ptr<const Schema>,
                     std::shared_ptr<BoundPredicate>>
      bound_;
};

// Filters by a predicate.
class SelectOperator final : public Operator {
 public:
  explicit SelectOperator(ExprPtr predicate)
      : predicate_(std::move(predicate)) {}

  void Push(size_t port, const Tuple& tuple) override;

 private:
  LazyPredicate predicate_;
};

// Projects fixed indexes onto an output schema (optionally renaming).
class ProjectOperator final : public Operator {
 public:
  ProjectOperator(std::vector<size_t> indices,
                  std::shared_ptr<const Schema> output_schema)
      : indices_(std::move(indices)), output_schema_(std::move(output_schema)) {}

  void Push(size_t port, const Tuple& tuple) override;

 private:
  std::vector<size_t> indices_;
  std::shared_ptr<const Schema> output_schema_;
};

}  // namespace cosmos

#endif  // COSMOS_SPE_OPERATOR_H_
