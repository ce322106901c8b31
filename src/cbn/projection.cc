#include "cbn/projection.h"

#include <algorithm>
#include <optional>

namespace cosmos {

const Tuple& ProjectionCache::Project(
    const Tuple& in, AttrMask mask,
    const std::vector<std::string>& dictionary, Tuple* scratch) {
  if ((mask & kAllAttributes) != 0) return in;
  const Plan* plan = Cached(in.schema().get(), mask, nullptr);
  if (plan == nullptr) {
    const Schema& schema = *in.schema();
    Plan fresh;
    fresh.mask = mask;
    std::vector<AttributeDef> defs;
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      const auto& def = schema.attribute(i);
      auto it = std::find(dictionary.begin(), dictionary.end(), def.name);
      if (it == dictionary.end()) continue;
      if ((mask & (AttrMask{1} << (it - dictionary.begin()))) == 0) continue;
      fresh.indices.push_back(i);
      defs.push_back(def);
    }
    if (fresh.indices.size() == schema.num_attributes()) {
      fresh.identity = true;
      fresh.indices.clear();
    } else {
      fresh.schema =
          std::make_shared<Schema>(schema.stream_name(), std::move(defs));
    }
    plan = &Insert(in.schema(), std::move(fresh));
  }
  if (plan->identity) return in;
  *scratch = in.Project(plan->indices, plan->schema);
  return *scratch;
}

const Tuple* ProjectionCache::Map(const Tuple& in, const TupleTarget& target,
                                  Tuple* scratch) {
  const Plan* plan =
      Cached(in.schema().get(), kAllAttributes, target.schema.get());
  if (plan == nullptr) {
    const Schema& schema = *in.schema();
    Plan fresh;
    fresh.mask = kAllAttributes;
    fresh.schema = target.schema;
    fresh.identity = schema == *target.schema;
    const std::vector<std::string>& names = target.source_names;
    for (size_t i = 0; i < names.size() && !fresh.drops; ++i) {
      std::optional<size_t> col = schema.IndexOf(names[i]);
      fresh.drops = !col.has_value();
      fresh.identity = fresh.identity && col == i;
      fresh.indices.push_back(col.value_or(0));
    }
    plan = &Insert(in.schema(), std::move(fresh));
  }
  if (plan->drops) return nullptr;
  if (plan->identity) return &in;
  *scratch = in.Project(plan->indices, plan->schema);
  return scratch;
}

size_t ProjectionCache::size() const {
  size_t total = 0;
  for (const auto& s : sources_) total += s.plans.size();
  return total;
}

const ProjectionCache::Plan* ProjectionCache::Cached(const Schema* source,
                                                     AttrMask mask,
                                                     const Schema* target) {
  auto same = [mask, target](const Plan& plan) {
    return plan.mask == mask &&
           (target == nullptr || plan.schema.get() == target);
  };
  if (last_plan_ != nullptr && last_schema_ == source && same(*last_plan_)) {
    return last_plan_;
  }
  for (const auto& s : sources_) {
    if (s.source.get() != source) continue;
    for (const auto& plan : s.plans) {
      if (!same(plan)) continue;
      last_schema_ = source;
      last_plan_ = &plan;
      return &plan;
    }
  }
  return nullptr;
}

const ProjectionCache::Plan& ProjectionCache::Insert(
    const std::shared_ptr<const Schema>& source, Plan plan) {
  // Drop the plans of schemas no tuple uses any more.
  sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                [](const SourcePlans& s) {
                                  return s.source.use_count() == 1;
                                }),
                 sources_.end());
  auto s = std::find_if(sources_.begin(), sources_.end(),
                        [&](const SourcePlans& sp) {
                          return sp.source.get() == source.get();
                        });
  if (s == sources_.end()) {
    sources_.push_back(SourcePlans{source, {}});
    s = sources_.end() - 1;
  }
  s->plans.push_back(std::move(plan));
  last_schema_ = source.get();
  last_plan_ = &s->plans.back();
  return s->plans.back();
}

}  // namespace cosmos
