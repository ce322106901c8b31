#include "cbn/projection.h"

#include <algorithm>

namespace cosmos {

const Tuple& ProjectionCache::Project(
    const Tuple& in, AttrMask mask,
    const std::vector<std::string>& dictionary, Tuple* scratch) {
  if ((mask & kAllAttributes) != 0) return in;
  const Plan& plan = last_plan_ != nullptr &&
                             last_schema_ == in.schema().get() &&
                             last_plan_->mask == mask
                         ? *last_plan_
                         : PlanFor(in.schema(), mask, dictionary);
  if (plan.identity) return in;
  *scratch = in.Project(plan.indices, plan.schema);
  return *scratch;
}

size_t ProjectionCache::size() const {
  size_t total = 0;
  for (const auto& s : sources_) total += s.plans.size();
  return total;
}

const ProjectionCache::Plan& ProjectionCache::PlanFor(
    const std::shared_ptr<const Schema>& schema_ptr, AttrMask mask,
    const std::vector<std::string>& dictionary) {
  for (auto& s : sources_) {
    if (s.source.get() != schema_ptr.get()) continue;
    for (const auto& plan : s.plans) {
      if (plan.mask == mask) {
        last_schema_ = s.source.get();
        last_plan_ = &plan;
        return plan;
      }
    }
  }
  // Miss: drop the plans of schemas no tuple uses any more.
  sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                [](const SourcePlans& s) {
                                  return s.source.use_count() == 1;
                                }),
                 sources_.end());

  const Schema& schema = *schema_ptr;
  Plan plan;
  plan.mask = mask;
  std::vector<AttributeDef> defs;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    const auto& def = schema.attribute(i);
    auto it = std::find(dictionary.begin(), dictionary.end(), def.name);
    if (it == dictionary.end()) continue;
    if ((mask & (AttrMask{1} << (it - dictionary.begin()))) == 0) continue;
    plan.indices.push_back(i);
    defs.push_back(def);
  }
  if (plan.indices.size() == schema.num_attributes()) {
    plan.identity = true;
    plan.indices.clear();
  } else {
    plan.schema =
        std::make_shared<Schema>(schema.stream_name(), std::move(defs));
  }

  auto s = std::find_if(sources_.begin(), sources_.end(),
                        [&](const SourcePlans& sp) {
                          return sp.source.get() == schema_ptr.get();
                        });
  if (s == sources_.end()) {
    sources_.push_back(SourcePlans{schema_ptr, {}});
    s = sources_.end() - 1;
  }
  s->plans.push_back(std::move(plan));
  last_schema_ = schema_ptr.get();
  last_plan_ = &s->plans.back();
  return s->plans.back();
}

}  // namespace cosmos
