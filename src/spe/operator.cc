#include "spe/operator.h"

namespace cosmos {

bool LazyPredicate::Matches(const Tuple& tuple) {
  if (expr_ == nullptr) return true;
  const std::shared_ptr<const Schema>& key = tuple.schema();
  auto it = bound_.find(key);
  if (it == bound_.end()) {
    auto bound = BoundPredicate::Bind(expr_, *tuple.schema());
    std::shared_ptr<BoundPredicate> ptr;
    if (bound.ok()) {
      ptr = std::make_shared<BoundPredicate>(std::move(bound).value());
    }
    it = bound_.emplace(key, std::move(ptr)).first;
  }
  if (it->second == nullptr) return false;  // unbindable => no match
  return it->second->Matches(tuple);
}

void SelectOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  if (predicate_.Matches(tuple)) Emit(tuple);
}

void ProjectOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  Emit(tuple.Project(indices_, output_schema_));
}

}  // namespace cosmos
