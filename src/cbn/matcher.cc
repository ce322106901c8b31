#include "cbn/matcher.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "expr/evaluator.h"

namespace cosmos {

namespace {

// Which table an attribute constraint compiles into. Numeric point
// equalities and proper intervals get the sorted fast paths; everything
// else (non-numeric equality, disequalities, presence-only constraints)
// keeps its interpreted AttrConstraint::Matches semantics in the misc
// list. Mixed constraints (an interval plus eq/neq) must stay misc — the
// numeric tables alone would drop the eq/neq half.
enum class Shape { kPointEq, kInterval, kMisc };

Shape ClassifyConstraint(const AttrConstraint& c) {
  if (c.eq.has_value() || !c.neq.empty()) return Shape::kMisc;
  if (c.interval.IsPoint()) return Shape::kPointEq;
  if (!c.interval.IsAll() && !c.interval.IsEmpty()) return Shape::kInterval;
  return Shape::kMisc;  // presence-only (empty intervals were dropped)
}

}  // namespace

CompiledMatcher::CompiledMatcher(std::string stream,
                                 const std::vector<const Profile*>& profiles)
    : stream_(std::move(stream)), num_profiles_(profiles.size()) {
  struct TableBuilder {
    std::vector<EqEntry> eq;
    std::vector<RangeEntry> range;
    std::vector<MiscEntry> misc;
  };
  // std::map so attribute-table order (and therefore match order) is
  // deterministic across rebuilds.
  std::map<std::string, TableBuilder> builders;

  for (uint32_t p = 0; p < profiles.size(); ++p) {
    COSMOS_CHECK(profiles[p] != nullptr) << "null profile in bucket";
    const Profile& profile = *profiles[p];
    const std::vector<size_t>& filters = profile.FilterIndicesOf(stream_);
    if (filters.empty()) {
      // Stream requested without filters: covered unconditionally.
      unconditional_.push_back(p);
      continue;
    }
    for (size_t f : filters) {
      const ConjunctiveClause& clause = profile.filters()[f].clause();
      // An unsatisfiable conjunct never matches; drop it whole (dropping
      // one constraint would lower the arity and widen the match).
      if (clause.IsUnsatisfiable()) continue;
      const auto id = static_cast<uint32_t>(conjuncts_.size());
      Conjunct cj;
      cj.profile = p;
      cj.arity = static_cast<uint32_t>(clause.constraints().size());
      cj.residual = clause.has_residual() ? &clause : nullptr;
      conjuncts_.push_back(cj);
      if (cj.arity == 0) {
        zero_arity_.push_back(id);
        continue;
      }
      for (const auto& [attr, c] : clause.constraints()) {
        TableBuilder& b = builders[attr];
        switch (ClassifyConstraint(c)) {
          case Shape::kPointEq:
            b.eq.push_back(EqEntry{c.interval.lo(), id});
            break;
          case Shape::kInterval:
            b.range.push_back(RangeEntry{c.interval, id});
            break;
          case Shape::kMisc:
            b.misc.push_back(MiscEntry{c, id});
            break;
        }
      }
    }
  }

  attrs_.reserve(builders.size());
  for (auto& [name, b] : builders) {
    std::sort(b.eq.begin(), b.eq.end(), [](const EqEntry& x, const EqEntry& y) {
      return x.value != y.value ? x.value < y.value : x.conjunct < y.conjunct;
    });
    std::sort(b.range.begin(), b.range.end(),
              [](const RangeEntry& x, const RangeEntry& y) {
                return x.interval.lo() != y.interval.lo()
                           ? x.interval.lo() < y.interval.lo()
                           : x.conjunct < y.conjunct;
              });
    attrs_.push_back(AttrTable{name, std::move(b.eq), std::move(b.range),
                               std::move(b.misc)});
    attr_names_.push_back(name);
  }
}

const std::vector<int32_t>& CompiledMatcher::OffsetsFor(
    const std::shared_ptr<const Schema>& schema) const {
  // A bucket's datagrams mostly share one schema: check the last first.
  if (last_binding_ != nullptr && last_binding_->schema == schema) {
    return last_binding_->offsets;
  }
  auto it = bindings_.find(schema.get());
  if (it == bindings_.end()) {
    // Exactly MatchesCanonical's resolution: an unqualified ColumnRef
    // resolves by plain schema name lookup, absent attributes fail.
    Binding binding{schema, schema->ResolveOffsets(attr_names_)};
    it = bindings_.emplace(schema.get(), std::move(binding)).first;
  }
  last_binding_ = &it->second;
  return last_binding_->offsets;
}

void CompiledMatcher::Match(const Datagram& d, Scratch* scratch,
                            std::vector<uint32_t>* out) const {
  COSMOS_DCHECK_EQ(d.stream, stream_) << "matcher consulted for wrong stream";
  out->clear();
  scratch->fallback_evals = 0;
  if (num_profiles_ == 0) return;
  if (scratch->counters.size() < conjuncts_.size()) {
    scratch->counters.resize(conjuncts_.size(), 0);
  }
  if (scratch->profile_seen.size() < num_profiles_) {
    scratch->profile_seen.resize(num_profiles_, 0);
  }
  scratch->touched.clear();

  // Counting stage: one pass over the constrained attributes, bumping each
  // conjunct once per satisfied constraint.
  const std::vector<int32_t>& offsets = OffsetsFor(d.tuple.schema());
  const std::vector<Value>& values = d.tuple.values();
  auto bump = [scratch](uint32_t conjunct) {
    if (scratch->counters[conjunct]++ == 0) {
      scratch->touched.push_back(conjunct);
    }
  };
  for (size_t a = 0; a < attrs_.size(); ++a) {
    const int32_t col = offsets[a];
    // Absent attribute: every constraint on it fails (presence
    // requirement), so its conjuncts simply never reach their arity.
    if (col < 0) continue;
    const Value& v = values[static_cast<size_t>(col)];
    const AttrTable& t = attrs_[a];
    if (v.is_numeric() && (!t.eq.empty() || !t.range.empty())) {
      const double x = v.NumericValue();
      if (!t.eq.empty()) {
        auto e = std::lower_bound(
            t.eq.begin(), t.eq.end(), x,
            [](const EqEntry& entry, double v) { return entry.value < v; });
        for (; e != t.eq.end() && e->value == x; ++e) bump(e->conjunct);
      }
      // Entries are sorted by lower bound: once a bound exceeds x no later
      // interval can contain it.
      for (const RangeEntry& r : t.range) {
        if (r.interval.lo() > x) break;
        if (r.interval.Contains(x)) bump(r.conjunct);
      }
    }
    for (const MiscEntry& m : t.misc) {
      if (m.constraint.Matches(v)) bump(m.conjunct);
    }
  }

  // Gather stage: a conjunct at full arity passed the canonical
  // constraints; evaluate its residual (if any) and emit its profile once.
  auto emit = [this, scratch, out, &d](uint32_t conjunct) {
    const Conjunct& cj = conjuncts_[conjunct];
    if (scratch->profile_seen[cj.profile]) return;  // disjunction: any hit
    if (cj.residual != nullptr) {
      ++scratch->fallback_evals;
      for (const ExprPtr& r : cj.residual->residual()) {
        auto res = EvalPredicate(r, d.tuple);
        if (!res.ok() || !*res) return;
      }
    }
    scratch->profile_seen[cj.profile] = 1;
    out->push_back(cj.profile);
  };
  for (uint32_t c : scratch->touched) {
    if (scratch->counters[c] == conjuncts_[c].arity) emit(c);
    scratch->counters[c] = 0;  // restore the all-zero invariant
  }
  for (uint32_t c : zero_arity_) emit(c);
  for (uint32_t p : unconditional_) {
    if (!scratch->profile_seen[p]) {
      scratch->profile_seen[p] = 1;
      out->push_back(p);
    }
  }
  for (uint32_t p : *out) scratch->profile_seen[p] = 0;
  std::sort(out->begin(), out->end());
}

}  // namespace cosmos
