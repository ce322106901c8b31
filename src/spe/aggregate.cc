#include "spe/aggregate.h"

#include <cmath>

#include "common/logging.h"

namespace cosmos {
namespace {

// Three-way order of one group-key column: Value::Compare where it is
// defined; incomparable values order by type id, then by string form.
int CompareKeyValues(const Value& a, const Value& b) {
  auto cmp = a.Compare(b);
  if (cmp.ok()) return *cmp;
  if (a.type() != b.type()) return a.type() < b.type() ? -1 : 1;
  return a.ToString().compare(b.ToString());
}

// True when `v` takes part in MIN/MAX (neither null nor NaN).
bool Ranked(const Value& v) {
  if (v.is_null()) return false;
  return v.type() != ValueType::kDouble || !std::isnan(v.AsDouble());
}

// True when `v` ranks strictly before `best` for MIN (`want_min`) or MAX.
bool StrictlyBetter(const Value& v, const Value& best, bool want_min) {
  auto cmp = v.Compare(best);
  return cmp.ok() && (want_min ? *cmp < 0 : *cmp > 0);
}

}  // namespace

bool WindowAggregateOperator::KeyLess::operator()(
    const std::vector<Value>& a, const std::vector<Value>& b) const {
  COSMOS_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    int c = CompareKeyValues(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return false;
}

bool WindowAggregateOperator::KeyLess::operator()(const std::vector<Value>& a,
                                                  const TupleKey& b) const {
  for (size_t i = 0; i < a.size(); ++i) {
    int c = CompareKeyValues(a[i], b.tuple.value(b.columns[i]));
    if (c != 0) return c < 0;
  }
  return false;
}

bool WindowAggregateOperator::KeyLess::operator()(
    const TupleKey& a, const std::vector<Value>& b) const {
  for (size_t i = 0; i < b.size(); ++i) {
    int c = CompareKeyValues(a.tuple.value(a.columns[i]), b[i]);
    if (c != 0) return c < 0;
  }
  return false;
}

WindowAggregateOperator::WindowAggregateOperator(
    Duration window, std::vector<size_t> group_keys, std::vector<AggSpec> aggs,
    std::shared_ptr<const Schema> output_schema)
    : window_size_(window),
      bounded_(window != kInfiniteDuration),
      group_keys_(std::move(group_keys)),
      aggs_(std::move(aggs)),
      output_schema_(std::move(output_schema)) {
  COSMOS_CHECK(output_schema_->num_attributes() ==
               group_keys_.size() + aggs_.size());
  slot_.assign(aggs_.size(), 0);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    switch (a.func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        slot_[i] = sum_args_.size();
        sum_args_.push_back(a.arg);
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        slot_[i] = ext_slots_.size();
        ext_slots_.push_back({a.arg, a.func == AggFunc::kMin});
        break;
    }
  }
}

WindowAggregateOperator::GroupMap::iterator
WindowAggregateOperator::FindOrAddGroup(const Tuple& t) {
  const TupleKey probe{t, group_keys_};
  auto it = groups_.lower_bound(probe);
  if (it != groups_.end() && !groups_.key_comp()(probe, it->first)) return it;
  std::vector<Value> key;
  key.reserve(group_keys_.size());
  for (size_t i : group_keys_) key.push_back(t.value(i));
  GroupState g;
  g.sums.assign(sum_args_.size(), 0.0);
  g.numeric.assign(sum_args_.size(), 0);
  g.extrema.resize(ext_slots_.size());
  return groups_.emplace_hint(it, std::move(key), std::move(g));
}

void WindowAggregateOperator::Add(GroupState& g, const Tuple& t,
                                  uint64_t seq) {
  ++g.count;
  for (size_t s = 0; s < sum_args_.size(); ++s) {
    const Value& v = t.value(sum_args_[s]);
    std::optional<double> x;
    if (v.is_numeric()) {
      x = v.NumericValue();
      g.sums[s] += *x;
      ++g.numeric[s];
    }
    if (bounded_) window_args_.push_back(x);
  }
  for (size_t s = 0; s < ext_slots_.size(); ++s) {
    const auto [arg, want_min] = ext_slots_[s];
    const Value& v = t.value(arg);
    if (!Ranked(v)) continue;
    std::deque<Candidate>& dq = g.extrema[s];
    if (!bounded_) {
      // Nothing ever leaves: only the running best matters.
      if (dq.empty()) {
        dq.push_back({seq, v});
      } else if (StrictlyBetter(v, dq.front().value, want_min)) {
        dq.front() = {seq, v};
      }
      continue;
    }
    // A candidate strictly worse than `v` can never be the front again:
    // `v` outlives it. Equal ones stay, so the earliest best wins ties.
    while (!dq.empty() && StrictlyBetter(v, dq.back().value, want_min)) {
      dq.pop_back();
    }
    dq.push_back({seq, v});
  }
}

void WindowAggregateOperator::EvictFront() {
  const Buffered victim = window_.front();
  window_.pop_front();
  GroupState& g = victim.group->second;
  --g.count;
  for (size_t s = 0; s < sum_args_.size(); ++s) {
    const std::optional<double> x = window_args_.front();
    window_args_.pop_front();
    if (x.has_value()) {
      g.sums[s] -= *x;
      --g.numeric[s];
    }
  }
  for (std::deque<Candidate>& dq : g.extrema) {
    if (!dq.empty() && dq.front().seq == victim.seq) dq.pop_front();
  }
  if (g.count == 0) groups_.erase(victim.group);
}

size_t WindowAggregateOperator::extremum_candidates() const {
  size_t n = 0;
  for (const auto& [key, g] : groups_) {
    for (const auto& dq : g.extrema) n += dq.size();
  }
  return n;
}

Value WindowAggregateOperator::Finalize(const GroupState& g,
                                        size_t agg_index) const {
  const size_t s = slot_[agg_index];
  switch (aggs_[agg_index].func) {
    case AggFunc::kCount:  // COUNT(*) and COUNT(arg) both count every row
      return Value(g.count);
    case AggFunc::kSum:
      return Value(g.sums[s]);
    case AggFunc::kAvg:
      if (g.numeric[s] == 0) return Value();
      return Value(g.sums[s] / static_cast<double>(g.numeric[s]));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (g.extrema[s].empty()) return Value();
      return g.extrema[s].front().value;
  }
  return Value();
}

void WindowAggregateOperator::Push(size_t port, const Tuple& tuple) {
  (void)port;
  const Timestamp now = tuple.timestamp();

  // Evict expired rows (timestamp < now - T), updating their groups.
  if (bounded_) {
    const Timestamp cutoff = now - window_size_;
    while (!window_.empty() && window_.front().timestamp < cutoff) {
      EvictFront();
    }
  }

  // Insert the arrival.
  const uint64_t seq = next_seq_++;
  auto group = FindOrAddGroup(tuple);
  if (bounded_) window_.push_back({now, seq, group});
  GroupState& g = group->second;
  Add(g, tuple, seq);

  // Emit the refreshed row of this group, keyed by the arrival's own values.
  std::vector<Value> out;
  out.reserve(output_schema_->num_attributes());
  for (size_t i : group_keys_) out.push_back(tuple.value(i));
  for (size_t i = 0; i < aggs_.size(); ++i) out.push_back(Finalize(g, i));
  Emit(Tuple(output_schema_, std::move(out), now));
}

}  // namespace cosmos
