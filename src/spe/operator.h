#ifndef COSMOS_SPE_OPERATOR_H_
#define COSMOS_SPE_OPERATOR_H_

#include <functional>
#include <memory>
#include <optional>
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

// Re-shapes tuples onto `target` by name: target column i takes the input
// column named `source_names[i]`, and input columns no name selects are
// dropped. A plan's input adapter and the presentation of a
// representative's results to a member both reshape this way.
class ReshapeByName {
 public:
  ReshapeByName(std::shared_ptr<const Schema> target,
                std::vector<std::string> source_names);

  // The reshaped tuple (same timestamp), or nullopt when `tuple` lacks a
  // named column.
  std::optional<Tuple> Apply(const Tuple& tuple);

 private:
  std::shared_ptr<const Schema> target_;
  std::vector<std::string> source_names_;
  // Per input schema (retained — see LazyPredicate): the input index of
  // each target column, or -1 when missing. Scanned, not hashed: a
  // consumer sees few distinct schemas (at most 16 in a perfbench `stream`
  // run).
  std::vector<std::pair<std::shared_ptr<const Schema>, std::vector<int>>>
      mappings_;
};

// Re-shapes any incoming tuple onto `target` by attribute-name lookup
// (dropping extras); tuples missing a target attribute are dropped. Used as
// the source adapter so downstream operators can rely on fixed indexes.
class AdaptOperator final : public Operator {
 public:
  explicit AdaptOperator(std::shared_ptr<const Schema> target);

  void Push(size_t port, const Tuple& tuple) override;

 private:
  ReshapeByName reshape_;
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
