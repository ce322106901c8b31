#include "core/grouping.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/workload.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

class GroupingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SensorDataset sensors;
    ASSERT_TRUE(sensors.RegisterAll(catalog_).ok());
  }

  AnalyzedQuery Q(const std::string& cql) {
    auto q = ParseAndAnalyze(cql, catalog_, "r");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  Catalog catalog_;
};

TEST_F(GroupingTest, FirstQueryOpensGroup) {
  GroupingEngine engine(&catalog_);
  auto result = engine.AddQuery("q1", Q("SELECT ambient_temperature FROM "
                                        "sensor_00"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->created_new_group);
  EXPECT_TRUE(result->representative_changed);
  EXPECT_EQ(engine.num_groups(), 1u);
  EXPECT_EQ(engine.num_queries(), 1u);
}

TEST_F(GroupingTest, OverlappingQueriesMerge) {
  GroupingEngine engine(&catalog_);
  (void)engine.AddQuery(
      "q1", Q("SELECT relative_humidity FROM sensor_00 WHERE "
              "relative_humidity >= 10 AND relative_humidity <= 60"));
  auto result = engine.AddQuery(
      "q2", Q("SELECT relative_humidity FROM sensor_00 WHERE "
              "relative_humidity >= 20 AND relative_humidity <= 70"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->created_new_group);
  EXPECT_TRUE(result->representative_changed);
  EXPECT_GT(result->marginal_benefit, 0.0);
  EXPECT_EQ(engine.num_groups(), 1u);
  const QueryGroup* g = engine.GroupOf("q2");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->size(), 2u);
  EXPECT_TRUE(QueryContains(g->representative, g->members[0]));
  EXPECT_TRUE(QueryContains(g->representative, g->members[1]));
}

TEST_F(GroupingTest, IdenticalQueryDoesNotBumpVersion) {
  GroupingEngine engine(&catalog_);
  (void)engine.AddQuery(
      "q1", Q("SELECT relative_humidity FROM sensor_00 WHERE "
              "relative_humidity <= 50"));
  const QueryGroup* g1 = engine.GroupOf("q1");
  uint64_t v1 = g1->version;
  auto result = engine.AddQuery(
      "q2", Q("SELECT relative_humidity FROM sensor_00 WHERE "
              "relative_humidity <= 50"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->created_new_group);
  EXPECT_FALSE(result->representative_changed);
  EXPECT_EQ(engine.GroupOf("q2")->version, v1);
}

TEST_F(GroupingTest, DisjointQueriesStaySeparate) {
  GroupingEngine engine(&catalog_);
  (void)engine.AddQuery(
      "q1", Q("SELECT relative_humidity FROM sensor_00 WHERE "
              "relative_humidity >= 0 AND relative_humidity <= 5"));
  (void)engine.AddQuery(
      "q2", Q("SELECT relative_humidity FROM sensor_00 WHERE "
              "relative_humidity >= 95 AND relative_humidity <= 100"));
  // Hull would be 20x wider than each member: negative benefit.
  EXPECT_EQ(engine.num_groups(), 2u);
}

TEST_F(GroupingTest, DifferentStreamsNeverGroup) {
  GroupingEngine engine(&catalog_);
  (void)engine.AddQuery("q1", Q("SELECT ambient_temperature FROM sensor_00"));
  (void)engine.AddQuery("q2", Q("SELECT ambient_temperature FROM sensor_01"));
  EXPECT_EQ(engine.num_groups(), 2u);
}

TEST_F(GroupingTest, DuplicateIdRejected) {
  GroupingEngine engine(&catalog_);
  (void)engine.AddQuery("q", Q("SELECT ambient_temperature FROM sensor_00"));
  auto result =
      engine.AddQuery("q", Q("SELECT ambient_temperature FROM sensor_00"));
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(GroupingTest, RemoveShrinksAndRecomposes) {
  GroupingEngine engine(&catalog_);
  (void)engine.AddQuery(
      "narrow", Q("SELECT relative_humidity FROM sensor_00 WHERE "
                  "relative_humidity >= 40 AND relative_humidity <= 50"));
  (void)engine.AddQuery(
      "wide", Q("SELECT relative_humidity FROM sensor_00 WHERE "
                "relative_humidity >= 10 AND relative_humidity <= 90"));
  ASSERT_EQ(engine.num_groups(), 1u);
  double before = engine.TotalRepresentativeRate();
  ASSERT_TRUE(engine.RemoveQuery("wide").ok());
  EXPECT_EQ(engine.num_queries(), 1u);
  EXPECT_EQ(engine.num_groups(), 1u);
  // Representative re-tightens to the narrow member.
  EXPECT_LT(engine.TotalRepresentativeRate(), before);
  const QueryGroup* g = engine.GroupOf("narrow");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->representative.local_selection(0)
                .ConstraintFor("relative_humidity")
                .interval,
            Interval(40, false, 50, false));
}

TEST_F(GroupingTest, RemoveLastMemberDropsGroup) {
  GroupingEngine engine(&catalog_);
  (void)engine.AddQuery("q", Q("SELECT ambient_temperature FROM sensor_00"));
  ASSERT_TRUE(engine.RemoveQuery("q").ok());
  EXPECT_EQ(engine.num_groups(), 0u);
  EXPECT_EQ(engine.num_queries(), 0u);
  EXPECT_EQ(engine.RemoveQuery("q").status().code(), StatusCode::kNotFound);
}

TEST_F(GroupingTest, GroupingRatioMatchesDefinition) {
  GroupingEngine engine(&catalog_);
  EXPECT_DOUBLE_EQ(engine.GroupingRatio(), 1.0);  // vacuous
  (void)engine.AddQuery("q1", Q("SELECT ambient_temperature FROM sensor_00"));
  (void)engine.AddQuery("q2", Q("SELECT ambient_temperature FROM sensor_00"));
  (void)engine.AddQuery("q3", Q("SELECT ambient_temperature FROM sensor_01"));
  EXPECT_DOUBLE_EQ(engine.GroupingRatio(), 2.0 / 3.0);
}

TEST_F(GroupingTest, MergedRateNeverExceedsUnmerged) {
  GroupingEngine engine(&catalog_);
  WorkloadOptions wl;
  wl.zipf_theta = 1.0;
  wl.seed = 321;
  QueryWorkloadGenerator gen(&catalog_, wl);
  for (int i = 0; i < 100; ++i) {
    auto q = ParseAndAnalyze(gen.NextCql(), catalog_, StrFormat("r%d", i));
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.AddQuery(StrFormat("q%d", i), *q).ok());
  }
  EXPECT_LE(engine.TotalRepresentativeRate(),
            engine.TotalMemberRate() * (1.0 + 1e-9));
  EXPECT_LE(engine.num_groups(), engine.num_queries());
}

TEST_F(GroupingTest, EveryMemberContainedInItsRepresentative) {
  GroupingEngine engine(&catalog_);
  WorkloadOptions wl;
  wl.zipf_theta = 1.5;
  wl.seed = 654;
  QueryWorkloadGenerator gen(&catalog_, wl);
  for (int i = 0; i < 80; ++i) {
    auto q = ParseAndAnalyze(gen.NextCql(), catalog_, StrFormat("r%d", i));
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.AddQuery(StrFormat("q%d", i), *q).ok());
  }
  for (const auto& [gid, group] : engine.groups()) {
    for (const auto& m : group.members) {
      EXPECT_TRUE(QueryContains(group.representative, m))
          << "group " << gid;
    }
  }
}

TEST_F(GroupingTest, ZeroCandidatesDisablesMerging) {
  GroupingOptions opts;
  opts.max_candidates = 0;
  GroupingEngine engine(&catalog_, opts);
  for (int i = 0; i < 5; ++i) {
    (void)engine.AddQuery(StrFormat("q%d", i),
                          Q("SELECT ambient_temperature FROM sensor_00"));
  }
  EXPECT_EQ(engine.num_groups(), 5u);
}

TEST_F(GroupingTest, MinBenefitThresholdBlocksMarginalMerges) {
  GroupingOptions opts;
  opts.min_benefit = 1e12;  // impossible bar
  GroupingEngine engine(&catalog_, opts);
  (void)engine.AddQuery("q1", Q("SELECT ambient_temperature FROM sensor_00"));
  (void)engine.AddQuery("q2", Q("SELECT ambient_temperature FROM sensor_00"));
  EXPECT_EQ(engine.num_groups(), 2u);
}

TEST_F(GroupingTest, ResultStreamNameEncodesVersion) {
  GroupingEngine engine(&catalog_);
  (void)engine.AddQuery(
      "q1", Q("SELECT relative_humidity FROM sensor_00 WHERE "
              "relative_humidity <= 40"));
  const QueryGroup* g = engine.GroupOf("q1");
  std::string name_v1 = g->ResultStreamName();
  (void)engine.AddQuery(
      "q2", Q("SELECT relative_humidity FROM sensor_00 WHERE "
              "relative_humidity <= 60"));
  g = engine.GroupOf("q1");
  EXPECT_NE(g->ResultStreamName(), name_v1);  // widened => version bump
}

}  // namespace
}  // namespace cosmos
