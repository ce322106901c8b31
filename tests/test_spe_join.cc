#include "spe/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "common/random.h"
#include "common/string_util.h"
#include "query/parser.h"

namespace cosmos {
namespace {

using Keys = std::vector<WindowJoinOperator::KeyConstraint>;

std::shared_ptr<const Schema> LeftSchema() {
  return std::make_shared<Schema>(
      "L", std::vector<AttributeDef>{{"id", ValueType::kInt64},
                                     {"x", ValueType::kDouble}});
}

std::shared_ptr<const Schema> RightSchema() {
  return std::make_shared<Schema>(
      "R", std::vector<AttributeDef>{{"id", ValueType::kInt64},
                                     {"y", ValueType::kDouble}});
}

Tuple L(int64_t id, double x, Timestamp ts) {
  return Tuple(LeftSchema(), {Value(id), Value(x)}, ts);
}
Tuple R(int64_t id, double y, Timestamp ts) {
  return Tuple(RightSchema(), {Value(id), Value(y)}, ts);
}

std::shared_ptr<const Schema> Joined() {
  return MakeJoinedSchema(
      {{LeftSchema().get(), "L"}, {RightSchema().get(), "R"}}, "J");
}

// L.id = R.id.
const Keys kIdKey = {{0, 0, 1, 0}};

TEST(WindowJoin, EquiKeyMatch) {
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration}, kIdKey,
                          nullptr, Joined());
  std::vector<Tuple> out;
  join.SetSink([&](const Tuple& t) { out.push_back(t); });
  join.Push(0, L(1, 1.0, 0));
  join.Push(0, L(2, 2.0, 1));
  join.Push(1, R(1, 9.0, 2));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].GetAttribute("L.id")->AsInt64(), 1);
  EXPECT_DOUBLE_EQ(out[0].GetAttribute("R.y")->AsDouble(), 9.0);
  EXPECT_EQ(out[0].timestamp(), 2);  // max of inputs
}

TEST(WindowJoin, SymmetricProbing) {
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration}, kIdKey,
                          nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(1, R(7, 1.0, 0));
  join.Push(0, L(7, 2.0, 1));  // arrival on the left probes the right
  EXPECT_EQ(n, 1);
}

TEST(WindowJoin, Lemma1TemporalCondition) {
  // T1 (left window) = 10, T2 (right window) = 5:
  // join iff -10 <= l.ts - r.ts <= 5.
  WindowJoinOperator join({10, 5}, kIdKey, nullptr, Joined());
  std::vector<std::pair<Timestamp, Timestamp>> matched;
  join.SetSink([&](const Tuple& t) {
    matched.push_back({t.GetAttribute("L.id")->AsInt64(),
                       t.GetAttribute("R.id")->AsInt64()});
  });
  // Interleave arrivals in event-time order; all share key semantics via
  // distinct ids so each (l, r) pair is identified by ids.
  join.Push(0, L(100, 0, 100));
  join.Push(1, R(100, 0, 104));  // l.ts - r.ts = -4: within [-10, 5]: match
  join.Push(0, L(200, 0, 105));
  join.Push(1, R(200, 0, 116));  // -11 < -10: no match
  join.Push(1, R(300, 0, 120));
  join.Push(0, L(300, 0, 124));  // 124-120 = 4 <= 5: match
  join.Push(1, R(400, 0, 130));
  join.Push(0, L(400, 0, 140));  // 10 > 5: no match
  ASSERT_EQ(matched.size(), 2u);
  EXPECT_EQ(matched[0].first, 100);
  EXPECT_EQ(matched[1].first, 300);
}

TEST(WindowJoin, NowWindowMatchesEqualTimestampsOnly) {
  // Right window [Now] (0): l.ts - r.ts <= 0; left window 10.
  WindowJoinOperator join({10, 0}, kIdKey, nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 0, 100));
  join.Push(1, R(1, 0, 105));  // l older than r by 5 <= T1: match
  EXPECT_EQ(n, 1);
  join.Push(1, R(2, 0, 110));
  join.Push(0, L(2, 0, 115));  // l newer than r: l.ts-r.ts = 5 > 0: no
  EXPECT_EQ(n, 1);
}

TEST(WindowJoin, EvictionDropsExpiredPartners) {
  WindowJoinOperator join({10, 10}, kIdKey, nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 0, 0));
  join.Push(1, R(1, 0, 20));  // l expired (20 - 0 > 10): no match
  EXPECT_EQ(n, 0);
  EXPECT_EQ(join.buffer_size(0), 0u);  // evicted
}

TEST(WindowJoin, MultipleMatchesPerArrival) {
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration}, kIdKey,
                          nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 0, 0));
  join.Push(0, L(1, 1, 1));
  join.Push(0, L(1, 2, 2));
  join.Push(1, R(1, 0, 3));
  EXPECT_EQ(n, 3);
}

TEST(WindowJoin, ResidualPredicateFiltersJoined) {
  // Join with residual L.x < R.y.
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration}, kIdKey,
                          *ParseExpression("L.x < R.y"), Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 5.0, 0));
  join.Push(1, R(1, 9.0, 1));  // 5 < 9: pass
  join.Push(1, R(1, 2.0, 2));  // 5 < 2: fail
  EXPECT_EQ(n, 1);
}

TEST(WindowJoin, NoKeysMeansTemporalCrossJoin) {
  WindowJoinOperator join({5, 5}, {}, nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 0, 0));
  join.Push(0, L(2, 0, 1));
  join.Push(1, R(99, 0, 3));
  EXPECT_EQ(n, 2);  // matches both lefts regardless of key
}

TEST(WindowJoin, MultiKeyJoin) {
  // Join on (id, x=y).
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration},
                          {{0, 0, 1, 0}, {0, 1, 1, 1}}, nullptr, Joined());
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, L(1, 5.0, 0));
  join.Push(1, R(1, 5.0, 1));  // both keys equal
  join.Push(1, R(1, 6.0, 2));  // second key differs
  EXPECT_EQ(n, 1);
}

// ---- N ports ----

std::shared_ptr<const Schema> PartSchema(const std::string& name) {
  return std::make_shared<Schema>(
      name, std::vector<AttributeDef>{{"k", ValueType::kInt64},
                                      {"v", ValueType::kDouble}});
}

Tuple Part(const std::shared_ptr<const Schema>& schema, int64_t k, double v,
           Timestamp ts) {
  return Tuple(schema, {Value(k), Value(v)}, ts);
}

// A.k = B.k and B.k = C.k.
const Keys kChain3 = {{0, 0, 1, 0}, {1, 0, 2, 0}};

class MultiWayJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = PartSchema("A");
    b_ = PartSchema("B");
    c_ = PartSchema("C");
    out_ = MakeJoinedSchema({{a_.get(), "A"}, {b_.get(), "B"}, {c_.get(), "C"}},
                            "J");
  }

  std::shared_ptr<const Schema> a_, b_, c_, out_;
};

TEST_F(MultiWayJoinTest, ConcatenatedSchemaQualifies) {
  EXPECT_EQ(out_->num_attributes(), 6u);
  EXPECT_TRUE(out_->HasAttribute("A.k"));
  EXPECT_TRUE(out_->HasAttribute("B.v"));
  EXPECT_TRUE(out_->HasAttribute("C.k"));
}

TEST_F(MultiWayJoinTest, ThreeWayKeyChainJoins) {
  WindowJoinOperator join(
      {kInfiniteDuration, kInfiniteDuration, kInfiniteDuration}, kChain3,
      nullptr, out_);
  std::vector<Tuple> results;
  join.SetSink([&](const Tuple& t) { results.push_back(t); });
  join.Push(0, Part(a_, 1, 0.5, 0));
  join.Push(1, Part(b_, 1, 1.5, 1));
  EXPECT_TRUE(results.empty());  // C still missing
  join.Push(2, Part(c_, 1, 2.5, 2));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].GetAttribute("A.k")->AsInt64(), 1);
  EXPECT_DOUBLE_EQ(results[0].GetAttribute("C.v")->AsDouble(), 2.5);
  EXPECT_EQ(results[0].timestamp(), 2);  // tau = max
  // Mismatched key never joins.
  join.Push(2, Part(c_, 9, 0.0, 3));
  EXPECT_EQ(results.size(), 1u);
}

TEST_F(MultiWayJoinTest, ArrivalOnMiddlePortCompletesCombination) {
  WindowJoinOperator join(
      {kInfiniteDuration, kInfiniteDuration, kInfiniteDuration}, kChain3,
      nullptr, out_);
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, Part(a_, 7, 0, 0));
  join.Push(2, Part(c_, 7, 0, 1));
  join.Push(1, Part(b_, 7, 0, 2));  // completes on the middle port
  EXPECT_EQ(n, 1);
}

TEST_F(MultiWayJoinTest, WindowConditionUsesTau) {
  // Windows: A 10, B 10, C 10. A combination joins iff every component is
  // within 10 of the max timestamp.
  WindowJoinOperator join({10, 10, 10}, kChain3, nullptr, out_);
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, Part(a_, 1, 0, 0));
  join.Push(1, Part(b_, 1, 0, 5));
  join.Push(2, Part(c_, 1, 0, 9));  // tau=9: ages 9,4,0 all <= 10
  EXPECT_EQ(n, 1);
  join.Push(0, Part(a_, 2, 0, 20));
  join.Push(1, Part(b_, 2, 0, 25));
  join.Push(2, Part(c_, 2, 0, 35));  // tau=35: A's age 15 > 10
  EXPECT_EQ(n, 1);
}

TEST_F(MultiWayJoinTest, MultipleCombinationsPerArrival) {
  WindowJoinOperator join(
      {kInfiniteDuration, kInfiniteDuration, kInfiniteDuration}, kChain3,
      nullptr, out_);
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, Part(a_, 1, 0, 0));
  join.Push(0, Part(a_, 1, 1, 1));
  join.Push(1, Part(b_, 1, 0, 2));
  join.Push(1, Part(b_, 1, 1, 3));
  join.Push(2, Part(c_, 1, 0, 4));  // 2 As x 2 Bs
  EXPECT_EQ(n, 4);
}

TEST_F(MultiWayJoinTest, ResidualFiltersCombinations) {
  auto residual = ParseExpression("A.v < C.v");
  ASSERT_TRUE(residual.ok());
  WindowJoinOperator join(
      {kInfiniteDuration, kInfiniteDuration, kInfiniteDuration}, kChain3,
      *residual, out_);
  int n = 0;
  join.SetSink([&](const Tuple&) { ++n; });
  join.Push(0, Part(a_, 1, 5.0, 0));
  join.Push(1, Part(b_, 1, 0.0, 1));
  join.Push(2, Part(c_, 1, 9.0, 2));  // 5 < 9: pass
  join.Push(2, Part(c_, 1, 1.0, 3));  // 5 < 1: fail
  EXPECT_EQ(n, 1);
}

// Arrival order is promised per port only: a tuple arriving late on one
// port still joins residents newer than itself, and eviction keeps every
// tuple such an arrival can still complete.
TEST(WindowJoin, LateArrivalOnAnotherPortStillJoins) {
  auto a = PartSchema("A");
  auto b = PartSchema("B");
  auto c = PartSchema("C");
  {
    // n=2: L@10, then R@5. tau = 10, ages 0 and 5.
    WindowJoinOperator join({10, 10}, kIdKey, nullptr, Joined());
    std::vector<Tuple> out;
    join.SetSink([&](const Tuple& t) { out.push_back(t); });
    join.Push(0, L(1, 0, 10));
    join.Push(1, R(1, 0, 5));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].timestamp(), 10);
  }
  auto three = MakeJoinedSchema(
      {{a.get(), "A"}, {b.get(), "B"}, {c.get(), "C"}}, "J");
  {
    // n=3: A@10, B@10, then C@5. tau = 10, ages 0, 0 and 5.
    WindowJoinOperator join({10, 10, 10}, kChain3, nullptr, three);
    std::vector<Tuple> out;
    join.SetSink([&](const Tuple& t) { out.push_back(t); });
    join.Push(0, Part(a, 1, 0, 10));
    join.Push(1, Part(b, 1, 0, 10));
    join.Push(2, Part(c, 1, 0, 5));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].timestamp(), 10);
  }
  {
    // B@15 is 15 past A@0, but C has not spoken yet: the older C@6 still
    // completes (A@0, B@5, C@6) at tau = 6, so A@0 must survive B@15.
    WindowJoinOperator join({10, 10, 10}, kChain3, nullptr, three);
    std::vector<Tuple> out;
    join.SetSink([&](const Tuple& t) { out.push_back(t); });
    join.Push(0, Part(a, 1, 0, 0));
    join.Push(1, Part(b, 1, 0, 5));
    join.Push(1, Part(b, 1, 1, 15));
    EXPECT_EQ(join.buffer_size(0), 1u);
    join.Push(2, Part(c, 1, 0, 6));
    ASSERT_EQ(out.size(), 1u);  // (A@0, B@15, C@6): A's age 15 > 10
    EXPECT_EQ(out[0].timestamp(), 6);
    EXPECT_DOUBLE_EQ(out[0].GetAttribute("B.v")->AsDouble(), 0);
  }
}

// ---- the per-port window buffers' boundaries ----
//
// A buffer keeps the tuples inside the window of every combination it can
// still enter: with two ports, buffer 0 drops timestamps < now - T where
// now is port 1's latest arrival.

TEST(WindowBuffer, EvictsExpired) {
  WindowJoinOperator join({10, 10}, {}, nullptr, Joined());
  join.Push(0, L(1, 0, 0));
  join.Push(0, L(2, 0, 5));
  join.Push(0, L(3, 0, 10));
  EXPECT_EQ(join.buffer_size(0), 3u);  // own arrivals never evict
  // At now=12, cutoff = 2: the tuple at ts=0 leaves.
  join.Push(1, R(1, 0, 12));
  EXPECT_EQ(join.buffer_size(0), 2u);
}

TEST(WindowBuffer, BoundaryTupleStays) {
  WindowJoinOperator join({10, 10}, {}, nullptr, Joined());
  join.Push(0, L(1, 0, 0));
  // cutoff = now - T = 0: ts=0 is still inside [now-T, now].
  join.Push(1, R(1, 0, 10));
  EXPECT_EQ(join.buffer_size(0), 1u);
  join.Push(1, R(1, 0, 11));
  EXPECT_EQ(join.buffer_size(0), 0u);
}

TEST(WindowBuffer, UnboundedNeverEvicts) {
  WindowJoinOperator join({kInfiniteDuration, kInfiniteDuration}, {}, nullptr,
                          Joined());
  for (int i = 0; i < 100; ++i) join.Push(0, L(i, 0, i));
  join.Push(1, R(1, 0, 1'000'000'000));
  EXPECT_EQ(join.buffer_size(0), 100u);
}

TEST(WindowBuffer, NowWindowKeepsOnlyCurrentInstant) {
  WindowJoinOperator join({0, 0}, {}, nullptr, Joined());
  join.Push(0, L(1, 0, 5));
  join.Push(1, R(1, 0, 5));  // same instant survives
  EXPECT_EQ(join.buffer_size(0), 1u);
  join.Push(1, R(1, 0, 6));
  EXPECT_EQ(join.buffer_size(0), 0u);
}

// ---- the nested-loop reference ----

struct Arrival {
  size_t port;
  Tuple tuple;
};

// A test-local predicate on the combination (one tuple per port), standing
// in for the residual the operator evaluates on the joined tuple.
using ReferenceResidual = std::function<bool(const std::vector<const Tuple*>&)>;

// What a reference comparison saw: results, results whose completing
// arrival (the component that arrived last) is older than tau, and tuples
// the operator evicted.
struct ReferenceStats {
  size_t results = 0;
  size_t late = 0;
  size_t evicted = 0;
};

// The join over the full history, by definition: every combination of one
// arrival per port whose equi-keys compare equal, whose components are each
// within their port's window of tau (the combination's max timestamp), and
// which passes the residual; emitted as values in port order at tau.
std::vector<Tuple> NestedLoopJoin(const std::vector<Arrival>& history,
                                  const std::vector<Duration>& windows,
                                  const Keys& keys,
                                  const ReferenceResidual& residual,
                                  const std::shared_ptr<const Schema>& out,
                                  ReferenceStats* stats) {
  const size_t n = windows.size();
  std::vector<std::vector<size_t>> per_port(n);  // positions in history
  for (size_t i = 0; i < history.size(); ++i) {
    per_port[history[i].port].push_back(i);
  }
  std::vector<Tuple> results;
  for (size_t p = 0; p < n; ++p) {
    if (per_port[p].empty()) return results;
  }
  std::vector<size_t> at(n, 0);
  std::vector<const Tuple*> combo(n);
  while (true) {
    Timestamp tau = kInvalidTimestamp;
    size_t last = 0;
    for (size_t p = 0; p < n; ++p) {
      const size_t pos = per_port[p][at[p]];
      combo[p] = &history[pos].tuple;
      tau = std::max(tau, combo[p]->timestamp());
      last = std::max(last, pos);
    }
    bool ok = true;
    for (size_t p = 0; p < n && ok; ++p) {
      ok = windows[p] == kInfiniteDuration ||
           tau - combo[p]->timestamp() <= windows[p];
    }
    for (const auto& k : keys) {
      if (!ok) break;
      auto cmp = combo[k.left_port]->value(k.left_attr).Compare(
          combo[k.right_port]->value(k.right_attr));
      ok = cmp.ok() && *cmp == 0;
    }
    if (ok && (!residual || residual(combo))) {
      std::vector<Value> values;
      for (const Tuple* t : combo) {
        values.insert(values.end(), t->values().begin(), t->values().end());
      }
      results.emplace_back(out, std::move(values), tau);
      ++stats->results;
      if (history[last].tuple.timestamp() < tau) ++stats->late;
    }
    // Odometer step over the ports' histories.
    size_t p = 0;
    while (p < n && ++at[p] == per_port[p].size()) at[p++] = 0;
    if (p == n) break;
  }
  return results;
}

// Value types spelled out, so int64 1 and double 1.0 stay distinct.
std::string Canonical(const Tuple& t) {
  std::string s = t.ToString();
  for (const Value& v : t.values()) {
    s += ' ';
    s += ValueTypeToString(v.type());
  }
  return s;
}

std::vector<std::string> AsSortedMultiset(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) out.push_back(Canonical(t));
  std::sort(out.begin(), out.end());
  return out;
}

// Streams `history` through the operator and checks the emitted tuples
// (values, schema and timestamp) against the reference, as multisets.
void ExpectMatchesReference(const std::vector<Arrival>& history,
                            const std::vector<Duration>& windows,
                            const Keys& keys, ExprPtr residual,
                            const ReferenceResidual& reference_residual,
                            const std::shared_ptr<const Schema>& out,
                            const std::string& context,
                            ReferenceStats* stats) {
  WindowJoinOperator join(windows, keys, std::move(residual), out);
  std::vector<Tuple> got;
  join.SetSink([&](const Tuple& t) { got.push_back(t); });
  for (const Arrival& a : history) join.Push(a.port, a.tuple);
  for (const Tuple& t : got) {
    EXPECT_EQ(*t.schema(), *out) << context;
  }
  const std::vector<Tuple> want =
      NestedLoopJoin(history, windows, keys, reference_residual, out, stats);
  EXPECT_EQ(AsSortedMultiset(got), AsSortedMultiset(want)) << context;
  stats->evicted += history.size();
  for (size_t p = 0; p < windows.size(); ++p) {
    stats->evicted -= join.buffer_size(p);
  }
}

// Random binary equi-joins in event-time order across both ports.
class JoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinPropertyTest, MatchesNestedLoopOracle) {
  Rng rng(GetParam());
  const Duration t_left = rng.NextInt(0, 20);
  const Duration t_right = rng.NextInt(0, 20);
  std::vector<Arrival> history;
  Timestamp now = 0;
  for (int i = 0; i < 200; ++i) {
    now += rng.NextInt(0, 3);
    const int64_t id = rng.NextInt(0, 5);
    if (rng.NextBool()) {
      history.push_back({0, L(id, 0, now)});
    } else {
      history.push_back({1, R(id, 0, now)});
    }
  }
  ReferenceStats stats;
  ExpectMatchesReference(history, {t_left, t_right}, kIdKey, nullptr, nullptr,
                         Joined(),
                         "T_left=" + std::to_string(t_left) +
                             " T_right=" + std::to_string(t_right),
                         &stats);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// Random three-way key chains in event-time order across all ports.
class MultiWayOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiWayOracleTest, ThreeWayMatchesNestedLoopOracle) {
  Rng rng(GetParam());
  std::vector<std::shared_ptr<const Schema>> schemas = {
      PartSchema("A"), PartSchema("B"), PartSchema("C")};
  auto out = MakeJoinedSchema({{schemas[0].get(), "A"},
                               {schemas[1].get(), "B"},
                               {schemas[2].get(), "C"}},
                              "J");
  const std::vector<Duration> windows = {
      rng.NextInt(0, 15), rng.NextInt(0, 15), rng.NextInt(0, 15)};
  std::vector<Arrival> history;
  Timestamp now = 0;
  for (int i = 0; i < 120; ++i) {
    now += rng.NextInt(0, 3);
    const size_t port = rng.NextBounded(3);
    history.push_back({port, Part(schemas[port], rng.NextInt(0, 3), 0, now)});
  }
  ReferenceStats stats;
  ExpectMatchesReference(history, windows, kChain3, nullptr, nullptr, out,
                         "Ta=" + std::to_string(windows[0]) +
                             " Tb=" + std::to_string(windows[1]) +
                             " Tc=" + std::to_string(windows[2]),
                         &stats);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiWayOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- differential fuzz ----
//
// Per seed: 2-4 ports; windows [Now], 1-20 ticks or unbounded; chain, star
// or no equi-keys; int64/double keys that compare equal across types, or
// string keys, with nulls; an optional residual; optionally a self-join
// (ports 0 and 1 read one stream). Each stream is in event-time order, but
// streams drift apart by a random skew and interleave at random, so
// arrivals are out of order across ports.
TEST(WindowJoinFuzz, MatchesNestedLoopReference) {
  constexpr int kSeeds = 240;
  Rng root(0x701A701A);
  ReferenceStats stats;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng = root.Derive(static_cast<uint64_t>(seed));
    const size_t n = 2 + rng.NextBounded(3);
    const bool self_join = rng.NextBool(0.2);
    const bool string_keys = rng.NextBool(0.25);
    const int key_shape = static_cast<int>(rng.NextBounded(3));
    const bool with_residual = rng.NextBool(0.3);

    std::vector<Duration> windows;
    for (size_t p = 0; p < n; ++p) {
      const uint64_t kind = rng.NextBounded(6);
      windows.push_back(kind == 0   ? 0
                        : kind == 1 ? kInfiniteDuration
                                    : rng.NextInt(1, 20));
    }

    // One stream per port, except that a self-join's ports 0 and 1 share
    // stream 0. Each stream has "k" and "v", in a random column order.
    const size_t num_streams = self_join ? n - 1 : n;
    std::vector<std::shared_ptr<const Schema>> stream_schema;
    std::vector<size_t> k_col, v_col;  // per stream
    for (size_t s = 0; s < num_streams; ++s) {
      const ValueType key_type = string_keys     ? ValueType::kString
                                 : rng.NextBool() ? ValueType::kInt64
                                                  : ValueType::kDouble;
      const bool k_first = rng.NextBool();
      std::vector<AttributeDef> attrs = {{"k", key_type},
                                         {"v", ValueType::kDouble}};
      if (!k_first) std::swap(attrs[0], attrs[1]);
      stream_schema.push_back(std::make_shared<Schema>(
          StrFormat("S%zu", s), std::move(attrs)));
      k_col.push_back(k_first ? 0 : 1);
      v_col.push_back(k_first ? 1 : 0);
    }
    auto stream_of = [&](size_t port) {
      return self_join && port > 0 ? port - 1 : port;
    };

    Keys keys;
    for (size_t p = 1; p < n && key_shape != 2; ++p) {
      const size_t left = key_shape == 0 ? p - 1 : 0;  // chain : star
      keys.push_back({left, k_col[stream_of(left)], p, k_col[stream_of(p)]});
    }

    std::vector<std::pair<const Schema*, std::string>> parts;
    for (size_t p = 0; p < n; ++p) {
      parts.emplace_back(stream_schema[stream_of(p)].get(),
                         StrFormat("P%zu", p));
    }
    auto out = MakeJoinedSchema(parts, "J");

    ExprPtr residual;
    ReferenceResidual reference_residual;
    if (with_residual) {
      residual = *ParseExpression("P0.v < P1.v");
      const size_t v0 = v_col[stream_of(0)];
      const size_t v1 = v_col[stream_of(1)];
      reference_residual = [v0, v1](const std::vector<const Tuple*>& c) {
        return c[0]->value(v0).AsDouble() < c[1]->value(v1).AsDouble();
      };
    }

    // Per stream: event-time-ordered tuples, offset by a random skew. The
    // lengths keep the reference's loop near 10^4 combinations.
    const Timestamp max_skew =
        std::vector<Timestamp>{0, 5, 30}[rng.NextBounded(3)];
    const size_t per_stream = std::vector<size_t>{0, 0, 40, 18, 10}[n];
    std::vector<std::vector<Tuple>> streams(num_streams);
    for (size_t s = 0; s < num_streams; ++s) {
      Timestamp ts = rng.NextInt(0, max_skew);
      for (size_t i = 0; i < per_stream; ++i) {
        ts += rng.NextInt(0, 3);
        Value key;
        if (rng.NextBool(0.1)) {
          key = Value::Null();
        } else if (string_keys) {
          key = Value(std::string(
              1, static_cast<char>('a' + rng.NextInt(0, 2))));
        } else {
          const int64_t k = rng.NextInt(0, 3);
          key = rng.NextBool() ? Value(k) : Value(static_cast<double>(k));
        }
        std::vector<Value> values(2);
        values[k_col[s]] = key;
        values[v_col[s]] = Value(static_cast<double>(rng.NextInt(0, 9)));
        streams[s].emplace_back(stream_schema[s], std::move(values), ts);
      }
    }
    // Interleave the streams at random; a self-join's stream feeds ports 0
    // and 1 in turn, the way QueryPlan::Push does.
    std::vector<Arrival> history;
    std::vector<size_t> next(num_streams, 0);
    std::vector<size_t> live;
    for (size_t s = 0; s < num_streams; ++s) live.push_back(s);
    while (!live.empty()) {
      const size_t pick = rng.NextBounded(live.size());
      const size_t s = live[pick];
      const Tuple& t = streams[s][next[s]];
      for (size_t p = 0; p < n; ++p) {
        if (stream_of(p) == s) history.push_back({p, t});
      }
      if (++next[s] == per_stream) {
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }

    const std::string context =
        "seed " + std::to_string(seed) + " n=" + std::to_string(n) +
        " shape=" + std::to_string(key_shape) +
        (self_join ? " self-join" : "") + (string_keys ? " string" : "") +
        (with_residual ? " residual" : "");
    ExpectMatchesReference(history, windows, keys, residual,
                           reference_residual, out, context, &stats);
    if (::testing::Test::HasFailure()) return;
  }
  // The generator must exercise what the reference is there to check.
  EXPECT_GT(stats.results, 20000u);
  EXPECT_GT(stats.late, 5000u);
  EXPECT_GT(stats.evicted, 3000u);
}

}  // namespace
}  // namespace cosmos
