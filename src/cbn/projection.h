#ifndef COSMOS_CBN_PROJECTION_H_
#define COSMOS_CBN_PROJECTION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cbn/stream_table.h"
#include "stream/tuple.h"

namespace cosmos {

// The tuple shape a consumer takes: column i of `schema` is the incoming
// column named `source_names[i]` (renamed when the names differ). A name
// may be listed twice, and both target columns take that one incoming
// column; the analyzer never emits a schema that repeats a name, so each
// name resolves to one incoming column.
struct TupleTarget {
  std::shared_ptr<const Schema> schema;
  std::vector<std::string> source_names;
};

// The projection plans of one owner: a routing bucket (early projection
// toward one link), a local subscription (its exact projection set, or the
// target its consumer takes) or a query plan's input port (its expected
// input schema). A plan is cached per (incoming schema, attribute mask or
// target), the way CompiledMatcher caches column offsets per schema, so the
// hot path resolves no attribute name. Plans live and die with their
// owner, which keeps the cache bounded by the live routing state.
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

  // Maps `in` onto `target`, resolving each named column by
  // Schema::IndexOf: nullptr when `in` lacks a column the target names
  // (projected away upstream), `&in` when its schema equals the target's
  // column for column, else the mapped tuple, built in `*scratch`. Plans
  // are keyed by the target's schema, which they retain.
  const Tuple* Map(const Tuple& in, const TupleTarget& target,
                   Tuple* scratch);

  // Cached plans.
  size_t size() const;

 private:
  struct Plan {
    // A Project plan's mask, which never holds kAllAttributes; a Map plan
    // carries kAllAttributes here and is keyed by `schema`, its target.
    AttrMask mask = 0;
    bool identity = false;
    // A Map plan whose incoming schema lacks a named column.
    bool drops = false;
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

  // The cached plan of (source, mask, target) (target nullptr: a Project
  // plan), or nullptr.
  const Plan* Cached(const Schema* source, AttrMask mask,
                     const Schema* target);
  // Caches `plan` for `source` and returns it.
  const Plan& Insert(const std::shared_ptr<const Schema>& source, Plan plan);

  std::vector<SourcePlans> sources_;
  // The plan Cached or Insert returned last and the schema it was asked
  // for (nullptr: none yet), so a run of tuples of one shape skips the
  // search. Plans move only when a miss adds or drops one, and a miss
  // replaces this; the plan's source entry retains the schema, which keeps
  // the address check ABA-safe.
  const Schema* last_schema_ = nullptr;
  const Plan* last_plan_ = nullptr;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_PROJECTION_H_
