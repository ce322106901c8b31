#include "spe/operator.h"

#include "common/check.h"

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

ReshapeByName::ReshapeByName(std::shared_ptr<const Schema> target,
                             std::vector<std::string> source_names)
    : target_(std::move(target)), source_names_(std::move(source_names)) {
  COSMOS_CHECK_EQ(source_names_.size(), target_->num_attributes());
}

std::optional<Tuple> ReshapeByName::Apply(const Tuple& tuple) {
  const std::shared_ptr<const Schema>& key = tuple.schema();
  const std::vector<int>* mapping = nullptr;
  // Newest first: the schema a consumer sees now is usually the one it
  // cached last.
  for (auto it = mappings_.rbegin(); it != mappings_.rend(); ++it) {
    if (it->first == key) {
      mapping = &it->second;
      break;
    }
  }
  if (mapping == nullptr) {
    std::vector<int> fresh;
    fresh.reserve(source_names_.size());
    for (const std::string& name : source_names_) {
      auto idx = key->IndexOf(name);
      fresh.push_back(idx.has_value() ? static_cast<int>(*idx) : -1);
    }
    mappings_.emplace_back(key, std::move(fresh));
    mapping = &mappings_.back().second;
  }
  std::vector<Value> values;
  values.reserve(mapping->size());
  for (int idx : *mapping) {
    if (idx < 0) return std::nullopt;
    values.push_back(tuple.value(static_cast<size_t>(idx)));
  }
  return Tuple(target_, std::move(values), tuple.timestamp());
}

namespace {

std::vector<std::string> AttributeNames(const Schema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.num_attributes());
  for (const auto& attr : schema.attributes()) names.push_back(attr.name);
  return names;
}

}  // namespace

AdaptOperator::AdaptOperator(std::shared_ptr<const Schema> target)
    : reshape_(target, AttributeNames(*target)) {}

void AdaptOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  std::optional<Tuple> adapted = reshape_.Apply(tuple);
  if (adapted) Emit(*adapted);  // a required attribute missing: drop
}

void ProjectOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  Emit(tuple.Project(indices_, output_schema_));
}

}  // namespace cosmos
