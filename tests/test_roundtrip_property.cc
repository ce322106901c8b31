// Property: for any workload-generated query, analyze -> Unparse ->
// re-analyze yields a semantically equal query (mutual containment).
// Unparse is for display and error messages only; representatives reach
// the SPE in analyzed form. Its double literals keep 6 significant digits,
// which the generators' constants need no more than.

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/containment.h"
#include "core/merger.h"
#include "core/workload.h"
#include "query/parser.h"
#include "query/unparser.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

class RoundTripPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    SensorDataset sensors;
    ASSERT_TRUE(sensors.RegisterAll(catalog_).ok());
  }
  Catalog catalog_;
};

TEST_P(RoundTripPropertyTest, WorkloadQueriesRoundTrip) {
  WorkloadOptions wl;
  wl.zipf_theta = 1.0;
  wl.seed = GetParam();
  wl.aggregate_fraction = 0.2;
  wl.join_fraction = 0.1;
  QueryWorkloadGenerator gen(&catalog_, wl);
  for (int i = 0; i < 100; ++i) {
    std::string cql = gen.NextCql();
    auto q1 = ParseAndAnalyze(cql, catalog_, "r");
    ASSERT_TRUE(q1.ok()) << cql;
    std::string text = Unparse(*q1);
    auto q2 = ParseAndAnalyze(text, catalog_, "r");
    ASSERT_TRUE(q2.ok()) << "unparse broke: " << text;
    EXPECT_TRUE(QueryContains(*q1, *q2) && QueryContains(*q2, *q1))
        << "original: " << cql << "\nunparsed: " << text;
  }
}

TEST_P(RoundTripPropertyTest, PairwiseMergesRoundTripThroughCql) {
  WorkloadOptions wl;
  wl.zipf_theta = 2.0;  // heavy overlap => many mergeable pairs
  wl.seed = GetParam() ^ 0x99;
  QueryWorkloadGenerator gen(&catalog_, wl);
  std::vector<AnalyzedQuery> queries;
  for (int i = 0; i < 40; ++i) {
    auto q = ParseAndAnalyze(gen.NextCql(), catalog_, StrFormat("r%d", i));
    ASSERT_TRUE(q.ok());
    queries.push_back(std::move(*q));
  }
  int merged = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size() && merged < 25; ++j) {
      if (!MergeCompatible(queries[i], queries[j])) continue;
      auto rep =
          ComposeRepresentative({&queries[i], &queries[j]}, catalog_, "rep");
      if (!rep.ok()) continue;
      ++merged;
      // The representative survives printing and re-parsing.
      auto reparsed = ParseAndAnalyze(Unparse(*rep), catalog_, "rep");
      ASSERT_TRUE(reparsed.ok()) << Unparse(*rep);
      EXPECT_TRUE(QueryContains(*reparsed, queries[i]));
      EXPECT_TRUE(QueryContains(*reparsed, queries[j]));
    }
  }
  EXPECT_GT(merged, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripPropertyTest,
                         ::testing::Values(10, 20, 30, 40));

TEST(ParserRobustness, DeepNestingAndLongConjunctions) {
  // 40 nested parens.
  std::string nested = "SELECT a FROM S WHERE ";
  for (int i = 0; i < 40; ++i) nested += "(";
  nested += "a > 1";
  for (int i = 0; i < 40; ++i) nested += ")";
  EXPECT_TRUE(ParseQuery(nested).ok());

  // 200-term conjunction.
  std::string conj = "SELECT a FROM S WHERE a > 0";
  for (int i = 1; i < 200; ++i) {
    conj += StrFormat(" AND a > %d", -i);
  }
  auto q = ParseQuery(conj);
  ASSERT_TRUE(q.ok());
  // Flattened into one AND with 200 children.
  ASSERT_EQ(q->where->kind(), ExprKind::kLogical);
  EXPECT_EQ(static_cast<const LogicalExpr&>(*q->where).children().size(),
            200u);
}

TEST(ParserRobustness, WhitespaceAndCaseChaos) {
  auto q = ParseQuery(
      "  sElEcT\n\ta ,\tb  FROM\n  S  [ rAnGe 3 hOuR ]\nWHERE a>1 AND b<2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select.size(), 2u);
  EXPECT_EQ(q->from[0].window.size, 3 * kHour);
}

TEST(ParserRobustness, VeryLongIdentifiers) {
  std::string name(200, 'x');
  auto q = ParseQuery("SELECT " + name + " FROM " + name);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->from[0].stream, name);
}

}  // namespace
}  // namespace cosmos
