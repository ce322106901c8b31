#ifndef COSMOS_CBN_PROJECTION_H_
#define COSMOS_CBN_PROJECTION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cbn/stream_table.h"
#include "stream/tuple.h"

namespace cosmos {

// The projection plans of one owner: a routing bucket (early projection
// toward one link) or a local subscription (its exact projection set).
// A plan is cached per (incoming schema, attribute mask), the way
// CompiledMatcher caches column offsets per schema, so the hot path
// resolves no attribute name. Plans live and die with their owner, which
// keeps the cache bounded by the live routing state.
class ProjectionCache {
 public:
  ProjectionCache() = default;
  // A copy's last plan would point into the original's cache.
  ProjectionCache(const ProjectionCache&) = delete;
  ProjectionCache& operator=(const ProjectionCache&) = delete;
  ProjectionCache(ProjectionCache&& other) noexcept
      : sources_(std::move(other.sources_)),
        last_schema_(std::exchange(other.last_schema_, nullptr)),
        last_plan_(std::exchange(other.last_plan_, nullptr)) {}
  ProjectionCache& operator=(ProjectionCache&& other) noexcept {
    sources_ = std::move(other.sources_);
    last_schema_ = std::exchange(other.last_schema_, nullptr);
    last_plan_ = std::exchange(other.last_plan_, nullptr);
    return *this;
  }

  // Projects `in`, a tuple of a stream whose attribute dictionary is
  // `dictionary`, onto the attributes in `mask`, keeping the schema's
  // attribute order and skipping attributes the tuple lacks (projected
  // away upstream). Returns `in` itself when every column is kept
  // (kAllAttributes always does), else the projection, built in `*scratch`.
  const Tuple& Project(const Tuple& in, AttrMask mask,
                       const std::vector<std::string>& dictionary,
                       Tuple* scratch);

  // Cached plans.
  size_t size() const;

 private:
  struct Plan {
    AttrMask mask = 0;
    bool identity = false;
    std::vector<size_t> indices;
    std::shared_ptr<const Schema> schema;
  };
  // The plans of one incoming schema. Plans are looked up by schema
  // address; RETAINING the schema guarantees no other schema can be
  // allocated at that address while they live. When this is the last
  // reference, no tuple of the schema exists any more and its plans are
  // dropped.
  struct SourcePlans {
    std::shared_ptr<const Schema> source;
    std::vector<Plan> plans;
  };

  // The plan of (schema, mask), built on a miss.
  const Plan& PlanFor(const std::shared_ptr<const Schema>& schema,
                      AttrMask mask,
                      const std::vector<std::string>& dictionary);

  std::vector<SourcePlans> sources_;
  // The plan PlanFor returned last and the schema it was asked for
  // (nullptr: none yet), so a run of datagrams of one shape skips
  // PlanFor. Plans move only when a miss adds or drops one, and a miss
  // replaces this; the plan's source entry retains the schema, which keeps
  // the address check ABA-safe.
  const Schema* last_schema_ = nullptr;
  const Plan* last_plan_ = nullptr;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_PROJECTION_H_
