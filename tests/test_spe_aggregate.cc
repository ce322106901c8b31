#include "spe/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <string>

#include "common/random.h"
#include "common/string_util.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> InSchema() {
  return std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                     {"v", ValueType::kDouble}});
}

std::shared_ptr<const Schema> OutSchema(const char* agg_name,
                                        ValueType agg_type) {
  return std::make_shared<Schema>(
      "out", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                       {agg_name, agg_type}});
}

Tuple In(int64_t g, double v, Timestamp ts) {
  return Tuple(InSchema(), {Value(g), Value(v)}, ts);
}

TEST(WindowAggregate, CountPerGroup) {
  WindowAggregateOperator agg(kInfiniteDuration, {0},
                              {{AggFunc::kCount, true, 0}},
                              OutSchema("cnt", ValueType::kInt64));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 0, 0));
  agg.Push(0, In(1, 0, 1));
  agg.Push(0, In(2, 0, 2));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value(1).AsInt64(), 1);
  EXPECT_EQ(out[1].value(1).AsInt64(), 2);
  EXPECT_EQ(out[2].value(1).AsInt64(), 1);  // group 2
  EXPECT_EQ(agg.num_groups(), 2u);
}

TEST(WindowAggregate, SumAndAvg) {
  WindowAggregateOperator agg(
      kInfiniteDuration, {0},
      {{AggFunc::kSum, false, 1}, {AggFunc::kAvg, false, 1}},
      std::make_shared<Schema>(
          "out", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                           {"s", ValueType::kDouble},
                                           {"a", ValueType::kDouble}}));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 10, 0));
  agg.Push(0, In(1, 20, 1));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].value(1).AsDouble(), 30.0);
  EXPECT_DOUBLE_EQ(out[1].value(2).AsDouble(), 15.0);
}

TEST(WindowAggregate, MinMaxTrackWindow) {
  WindowAggregateOperator agg(
      kInfiniteDuration, {0},
      {{AggFunc::kMin, false, 1}, {AggFunc::kMax, false, 1}},
      std::make_shared<Schema>(
          "out", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                           {"lo", ValueType::kDouble},
                                           {"hi", ValueType::kDouble}}));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 5, 0));
  agg.Push(0, In(1, 3, 1));
  agg.Push(0, In(1, 8, 2));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2].value(1).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(out[2].value(2).AsDouble(), 8.0);
}

TEST(WindowAggregate, WindowEvictionUpdatesState) {
  // Window of 10: at ts=15, the tuple from ts=0 has left.
  WindowAggregateOperator agg(10, {0}, {{AggFunc::kSum, false, 1}},
                              OutSchema("s", ValueType::kDouble));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 100, 0));
  agg.Push(0, In(1, 10, 15));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].value(1).AsDouble(), 10.0);  // 100 evicted
}

TEST(WindowAggregate, MinRecomputedAfterEviction) {
  WindowAggregateOperator agg(10, {0}, {{AggFunc::kMin, false, 1}},
                              OutSchema("lo", ValueType::kDouble));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 1, 0));   // min = 1
  agg.Push(0, In(1, 5, 8));   // min = 1
  agg.Push(0, In(1, 7, 15));  // ts=0 evicted (cutoff 5); min of {5,7} = 5
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2].value(1).AsDouble(), 5.0);
}

TEST(WindowAggregate, GroupsDisappearWhenEmpty) {
  WindowAggregateOperator agg(5, {0}, {{AggFunc::kCount, true, 0}},
                              OutSchema("c", ValueType::kInt64));
  agg.SetSink(nullptr);
  agg.Push(0, In(1, 0, 0));
  agg.Push(0, In(2, 0, 100));  // group 1 evicted entirely
  EXPECT_EQ(agg.num_groups(), 1u);
}

TEST(WindowAggregate, EmptyGroupByAggregatesGlobally) {
  WindowAggregateOperator agg(kInfiniteDuration, {},
                              {{AggFunc::kCount, true, 0}},
                              std::make_shared<Schema>(
                                  "out", std::vector<AttributeDef>{
                                             {"c", ValueType::kInt64}}));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 0, 0));
  agg.Push(0, In(9, 0, 1));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].value(0).AsInt64(), 2);
  EXPECT_EQ(agg.num_groups(), 1u);
}

TEST(WindowAggregate, EmissionTimestampIsArrivalTime) {
  WindowAggregateOperator agg(kInfiniteDuration, {0},
                              {{AggFunc::kCount, true, 0}},
                              OutSchema("c", ValueType::kInt64));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, 0, 77));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].timestamp(), 77);
}

TEST(WindowAggregate, TiesKeepTheEarliestValue) {
  // 1 (int64) and 1.0 (double) tie under Value::Compare: MIN reports the
  // earlier one, with its type, until it is evicted.
  auto in = InSchema();
  WindowAggregateOperator agg(10, {0}, {{AggFunc::kMin, false, 1}},
                              OutSchema("lo", ValueType::kDouble));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, Tuple(in, {Value(int64_t{1}), Value(int64_t{1})}, 0));
  agg.Push(0, Tuple(in, {Value(int64_t{1}), Value(1.0)}, 5));
  agg.Push(0, Tuple(in, {Value(int64_t{1}), Value(3.0)}, 12));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].value(1), Value(int64_t{1}));
  EXPECT_EQ(out[2].value(1), Value(1.0));  // ts=0 evicted (cutoff 2)
}

TEST(WindowAggregate, MinMaxSkipNullAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto in = InSchema();
  WindowAggregateOperator agg(
      10, {0},
      {{AggFunc::kMin, false, 1},
       {AggFunc::kMax, false, 1},
       {AggFunc::kSum, false, 1}},
      std::make_shared<Schema>(
          "out", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                           {"lo", ValueType::kDouble},
                                           {"hi", ValueType::kDouble},
                                           {"s", ValueType::kDouble}}));
  std::vector<Tuple> out;
  agg.SetSink([&](const Tuple& t) { out.push_back(t); });
  agg.Push(0, In(1, nan, 0));                               // only NaN
  agg.Push(0, Tuple(in, {Value(int64_t{1}), Value()}, 1));  // null
  agg.Push(0, In(1, 2.0, 2));
  agg.Push(0, In(1, nan, 3));
  agg.Push(0, In(1, 1.0, 4));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_TRUE(out[0].value(1).is_null());
  EXPECT_TRUE(out[0].value(2).is_null());
  EXPECT_TRUE(out[1].value(1).is_null());
  EXPECT_EQ(out[2].value(1), Value(2.0));
  EXPECT_EQ(out[2].value(2), Value(2.0));
  EXPECT_EQ(out[4].value(1), Value(1.0));
  EXPECT_EQ(out[4].value(2), Value(2.0));
  // SUM is unchanged by the rule: a NaN argument makes it NaN.
  EXPECT_TRUE(std::isnan(out[4].value(3).AsDouble()));
}

// ---- differential fuzz against a brute-force reference ----

// The aggregation algorithm the operator replaced, kept only as the test
// oracle: the window's tuples in a plain deque, running SUM/AVG state per
// group (added on arrival, subtracted on eviction, in that order, so doubles
// stay bit-identical) and MIN/MAX recomputed by rescanning the whole window
// for the arriving tuple's group. NaN arguments are not generated: the
// rescan's NaN result depends on scan order (the operator skips NaNs; see
// MinMaxSkipNullAndNaN).
class ReferenceAggregate {
 public:
  ReferenceAggregate(Duration window, std::vector<size_t> group_keys,
                     std::vector<AggSpec> aggs,
                     std::shared_ptr<const Schema> output_schema)
      : window_(window),
        group_keys_(std::move(group_keys)),
        aggs_(std::move(aggs)),
        output_schema_(std::move(output_schema)) {}

  // Evicts expired tuples and inserts `t`, updating the running state.
  void Insert(const Tuple& t) {
    if (window_ != kInfiniteDuration) {
      while (!tuples_.empty() &&
             tuples_.front().timestamp() < t.timestamp() - window_) {
        auto it = groups_.find(KeyOf(tuples_.front()));
        Apply(it->second, tuples_.front(), -1);
        if (it->second.count == 0) groups_.erase(it);
        tuples_.pop_front();
      }
    }
    tuples_.push_back(t);
    Apply(groups_[KeyOf(t)], t, +1);
  }

  // The row emitted for the arrival `t` (already inserted).
  Tuple Row(const Tuple& t) const {
    const std::vector<Value> key = KeyOf(t);
    const State& g = groups_.at(key);
    std::vector<const Tuple*> members;  // the group's window, in order
    for (const auto& w : tuples_) {
      if (InGroup(w, key)) members.push_back(&w);
    }
    std::vector<Value> out = key;
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggSpec& a = aggs_[i];
      if (a.star || a.func == AggFunc::kCount) {
        out.emplace_back(g.count);
      } else if (a.func == AggFunc::kSum) {
        out.emplace_back(g.sums[i]);
      } else if (a.func == AggFunc::kAvg) {
        out.push_back(g.numeric[i] == 0
                          ? Value()
                          : Value(g.sums[i] /
                                  static_cast<double>(g.numeric[i])));
      } else {
        out.push_back(Rescan(members, a.arg, a.func == AggFunc::kMin));
      }
    }
    return Tuple(output_schema_, std::move(out), t.timestamp());
  }

  size_t num_groups() const { return groups_.size(); }

 private:
  // Group-key column order: Value::Compare where defined, else type id,
  // then string form.
  static int CompareKey(const Value& a, const Value& b) {
    auto cmp = a.Compare(b);
    if (cmp.ok()) return *cmp;
    if (a.type() != b.type()) return a.type() < b.type() ? -1 : 1;
    return a.ToString().compare(b.ToString());
  }
  struct KeyLess {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const {
      for (size_t i = 0; i < a.size(); ++i) {
        if (int c = CompareKey(a[i], b[i]); c != 0) return c < 0;
      }
      return false;
    }
  };
  struct State {
    int64_t count = 0;
    std::vector<double> sums;      // by agg index
    std::vector<int64_t> numeric;  // by agg index
  };

  std::vector<Value> KeyOf(const Tuple& t) const {
    std::vector<Value> key;
    for (size_t i : group_keys_) key.push_back(t.value(i));
    return key;
  }

  bool InGroup(const Tuple& t, const std::vector<Value>& key) const {
    for (size_t i = 0; i < key.size(); ++i) {
      if (CompareKey(t.value(group_keys_[i]), key[i]) != 0) return false;
    }
    return true;
  }

  void Apply(State& g, const Tuple& t, int sign) const {
    g.count += sign;
    g.sums.resize(aggs_.size(), 0.0);
    g.numeric.resize(aggs_.size(), 0);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggSpec& a = aggs_[i];
      if (a.star || (a.func != AggFunc::kSum && a.func != AggFunc::kAvg)) {
        continue;
      }
      const Value& v = t.value(a.arg);
      if (!v.is_numeric()) continue;
      g.numeric[i] += sign;
      g.sums[i] += sign * v.NumericValue();
    }
  }

  static Value Rescan(const std::vector<const Tuple*>& members, size_t arg,
                      bool want_min) {
    bool found = false;
    Value best;
    for (const Tuple* t : members) {
      const Value& v = t->value(arg);
      if (v.is_null()) continue;
      if (!found) {
        best = v;
        found = true;
        continue;
      }
      auto cmp = v.Compare(best);
      if (cmp.ok() && ((want_min && *cmp < 0) || (!want_min && *cmp > 0))) {
        best = v;
      }
    }
    return best;  // null when the group has no non-null argument
  }

  Duration window_;
  std::vector<size_t> group_keys_;
  std::vector<AggSpec> aggs_;
  std::shared_ptr<const Schema> output_schema_;
  std::deque<Tuple> tuples_;
  std::map<std::vector<Value>, State, KeyLess> groups_;
};

// Fuzz input: two group columns and one argument column per kind. `m` mixes
// int64 and double values, so ties between 2 and 2.0 are visible in the
// emitted value's type.
std::shared_ptr<const Schema> FuzzSchema() {
  static const auto schema = std::make_shared<Schema>(
      "F", std::vector<AttributeDef>{{"g", ValueType::kInt64},
                                     {"h", ValueType::kString},
                                     {"i", ValueType::kInt64},
                                     {"d", ValueType::kDouble},
                                     {"s", ValueType::kString},
                                     {"m", ValueType::kDouble}});
  return schema;
}

enum FuzzColumn : size_t { kG, kH, kI, kD, kS, kM };

Value MaybeNull(Rng& rng, Value v) {
  return rng.NextBool(0.15) ? Value() : std::move(v);
}

std::vector<Tuple> FuzzStream(Rng& rng, size_t n) {
  static const char* kStrings[] = {"a", "b", "bb", "c"};
  static const double kDoubles[] = {-1.5, 0.25, 2.0, 7.0};
  std::vector<Tuple> stream;
  Timestamp ts = 0;
  for (size_t k = 0; k < n; ++k) {
    const double step = rng.NextDouble();
    if (step < 0.3) {
      // burst: same timestamp as the previous tuple
    } else if (step < 0.92) {
      ts += rng.NextInt(1, 10);
    } else {
      ts += rng.NextInt(30, 150);  // many rows (or whole groups) expire
    }
    const double d = rng.NextBool() ? kDoubles[rng.NextBounded(4)]
                                    : rng.NextDouble(-100, 100);
    Value m = rng.NextBool() ? Value(rng.NextInt(0, 3))
                             : Value(static_cast<double>(rng.NextInt(0, 6)) / 2);
    stream.emplace_back(
        FuzzSchema(),
        std::vector<Value>{
            Value(rng.NextInt(0, 3)),
            Value(kStrings[rng.NextBounded(2)]),
            MaybeNull(rng, Value(rng.NextInt(-3, 3))),
            MaybeNull(rng, Value(d)),
            MaybeNull(rng, Value(kStrings[rng.NextBounded(4)])),
            MaybeNull(rng, std::move(m))},
        ts);
  }
  return stream;
}

// Every function over every argument kind, in a per-seed order.
std::vector<AggSpec> FuzzAggs(Rng& rng) {
  std::vector<AggSpec> aggs = {{AggFunc::kCount, true, 0},
                               {AggFunc::kCount, false, kD},
                               {AggFunc::kSum, false, kD},
                               {AggFunc::kSum, false, kI},
                               {AggFunc::kAvg, false, kM},
                               {AggFunc::kAvg, false, kS}};
  for (AggFunc f : {AggFunc::kMin, AggFunc::kMax}) {
    for (size_t col : {kI, kD, kS, kM}) aggs.push_back({f, false, col});
  }
  for (size_t i = aggs.size(); i > 1; --i) {
    std::swap(aggs[i - 1], aggs[rng.NextBounded(i)]);
  }
  return aggs;
}

std::shared_ptr<const Schema> FuzzOutSchema(size_t keys, size_t aggs) {
  std::vector<AttributeDef> defs;
  for (size_t i = 0; i < keys + aggs; ++i) {
    defs.push_back({StrFormat("c%zu", i), ValueType::kDouble});
  }
  return std::make_shared<Schema>("out", std::move(defs));
}

TEST(WindowAggregateFuzz, MatchesRescanReferenceAcrossSeeds) {
  constexpr int kSeeds = 200;
  Rng root(0xA66A66);
  size_t multi_evictions = 0, emptied = 0, emitted = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng = root.Derive(static_cast<uint64_t>(seed));
    const std::vector<Tuple> stream = FuzzStream(rng, 160);
    const std::vector<AggSpec> aggs = FuzzAggs(rng);
    const std::vector<size_t> keys =
        rng.NextBool() ? std::vector<size_t>{kG}
                       : std::vector<size_t>{kG, kH};
    const auto out_schema = FuzzOutSchema(keys.size(), aggs.size());
    // [Now], 1-100 ticks and [Range Unbounded] over the same stream.
    for (Duration window : {Duration{0}, Duration{rng.NextInt(1, 100)},
                            kInfiniteDuration}) {
      WindowAggregateOperator agg(window, keys, aggs, out_schema);
      ReferenceAggregate ref(window, keys, aggs, out_schema);
      std::vector<Tuple> got;
      agg.SetSink([&](const Tuple& t) { got.push_back(t); });
      for (size_t k = 0; k < stream.size(); ++k) {
        const size_t buffered = agg.buffered_tuples();
        const size_t groups = agg.num_groups();
        agg.Push(0, stream[k]);
        ref.Insert(stream[k]);
        ASSERT_EQ(got.size(), k + 1);
        ASSERT_EQ(got.back(), ref.Row(stream[k]))
            << "seed " << seed << " window " << window << " arrival " << k
            << ": " << got.back().ToString() << " vs "
            << ref.Row(stream[k]).ToString();
        ASSERT_EQ(agg.num_groups(), ref.num_groups())
            << "seed " << seed << " window " << window << " arrival " << k;
        if (window == kInfiniteDuration) {
          ASSERT_EQ(agg.buffered_tuples(), 0u);
        } else if (agg.buffered_tuples() + 1 < buffered) {
          ++multi_evictions;
        }
        // The 4 (or 8) keys recur, so an emptied group comes back.
        if (agg.num_groups() < groups) ++emptied;
        ++emitted;
      }
    }
  }
  EXPECT_EQ(emitted, size_t{kSeeds} * 3 * 160);
  // The generator must exercise what the reference is there to check.
  EXPECT_GT(multi_evictions, 1000u);
  EXPECT_GT(emptied, 1000u);
}

TEST(WindowAggregateFuzz, UnboundedKeepsConstantStatePerGroup) {
  // 10^5 arrivals over 3 groups: one rising, one falling, one random. The
  // monotone groups are the worst case for a candidate deque, which an
  // unbounded window must not keep.
  auto in = InSchema();
  const std::vector<AggSpec> aggs = {{AggFunc::kMin, false, 1},
                                     {AggFunc::kMax, false, 1},
                                     {AggFunc::kAvg, false, 1}};
  const auto out_schema = FuzzOutSchema(1, aggs.size());
  WindowAggregateOperator agg(kInfiniteDuration, {0}, aggs, out_schema);
  ReferenceAggregate ref(kInfiniteDuration, {0}, aggs, out_schema);
  std::vector<Tuple> got;
  agg.SetSink([&](const Tuple& t) { got.push_back(t); });
  Rng rng(0x0B0B);
  constexpr int kArrivals = 100000;
  for (int k = 0; k < kArrivals; ++k) {
    const int64_t g = k % 3;
    const double v = g == 0   ? static_cast<double>(k)
                     : g == 1 ? static_cast<double>(-k)
                              : rng.NextDouble(-1e6, 1e6);
    const Tuple t = In(g, v, k / 10);
    agg.Push(0, t);
    ref.Insert(t);
    // The reference rescans the whole history, so compare a sample of rows
    // plus the last row of each group.
    if (k % 4999 == 0 || k >= kArrivals - 3) {
      ASSERT_EQ(got.back(), ref.Row(t)) << "arrival " << k;
    }
    got.clear();
  }
  EXPECT_EQ(agg.buffered_tuples(), 0u);
  EXPECT_EQ(agg.num_groups(), 3u);
  EXPECT_EQ(agg.extremum_candidates(), 3u * 2u);
}

}  // namespace
}  // namespace cosmos
