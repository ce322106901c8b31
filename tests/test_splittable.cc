// Regression tests for the split-expressibility invariant: a group
// representative must project every attribute a member's re-tightening
// profile filters on, so the member's user profile composes against it.
// (Found by the churn test: a newcomer *contained* by the representative,
// but constraining an attribute the representative didn't project, broke
// user-profile composition.)

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/grouping.h"
#include "core/profile_composer.h"
#include "stream/auction_dataset.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

class SplittableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SensorDataset sensors;
    ASSERT_TRUE(sensors.RegisterAll(catalog_).ok());
    AuctionDataset auctions;
    ASSERT_TRUE(auctions.RegisterAll(catalog_).ok());
  }

  AnalyzedQuery Q(const std::string& cql, const std::string& name = "r") {
    auto q = ParseAndAnalyze(cql, catalog_, name);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  Catalog catalog_;
};

TEST_F(SplittableTest, EqualSelectionsAreSplittable) {
  AnalyzedQuery a = Q(
      "SELECT ambient_temperature FROM sensor_00 WHERE solar_radiation >= "
      "0 AND solar_radiation <= 900");
  EXPECT_TRUE(ComposeUserProfile(a, a).ok());
}

TEST_F(SplittableTest, TighterConstraintOnUnprojectedAttrIsNotSplittable) {
  AnalyzedQuery rep = Q(
      "SELECT ambient_temperature FROM sensor_00 WHERE solar_radiation >= "
      "0 AND solar_radiation <= 1000");
  AnalyzedQuery user = Q(
      "SELECT ambient_temperature FROM sensor_00 WHERE solar_radiation >= "
      "0 AND solar_radiation <= 900");
  ASSERT_TRUE(QueryContains(rep, user));
  EXPECT_FALSE(ComposeUserProfile(user, rep).ok());
}

TEST_F(SplittableTest, TighterConstraintOnProjectedAttrIsSplittable) {
  AnalyzedQuery rep = Q(
      "SELECT ambient_temperature, solar_radiation FROM sensor_00 WHERE "
      "solar_radiation >= 0 AND solar_radiation <= 1000");
  AnalyzedQuery user = Q(
      "SELECT ambient_temperature FROM sensor_00 WHERE solar_radiation >= "
      "0 AND solar_radiation <= 900");
  EXPECT_TRUE(ComposeUserProfile(user, rep).ok());
}

TEST_F(SplittableTest, TighterJoinWindowNeedsTimestamps) {
  AnalyzedQuery rep_no_ts = Q(
      "SELECT O.itemID FROM OpenAuction [Range 5 Hour] O, ClosedAuction "
      "[Now] C WHERE O.itemID = C.itemID");
  AnalyzedQuery user = Q(
      "SELECT O.itemID FROM OpenAuction [Range 3 Hour] O, ClosedAuction "
      "[Now] C WHERE O.itemID = C.itemID");
  EXPECT_FALSE(ComposeUserProfile(user, rep_no_ts).ok());
  AnalyzedQuery rep_ts = Q(
      "SELECT O.itemID, O.timestamp, C.timestamp FROM OpenAuction [Range 5 "
      "Hour] O, ClosedAuction [Now] C WHERE O.itemID = C.itemID");
  EXPECT_TRUE(ComposeUserProfile(user, rep_ts).ok());
}

TEST_F(SplittableTest, GroupingRecomposesForContainedButUnsplittableQuery) {
  GroupingEngine engine(&catalog_);
  // Two identical wide queries establish a representative that does not
  // project solar_radiation (no re-filtering needed among them).
  (void)engine.AddQuery(
      "w1", Q("SELECT ambient_temperature FROM sensor_00 WHERE "
              "solar_radiation >= 0 AND solar_radiation <= 1000"));
  (void)engine.AddQuery(
      "w2", Q("SELECT ambient_temperature FROM sensor_00 WHERE "
              "solar_radiation >= 0 AND solar_radiation <= 1000"));
  const QueryGroup* g = engine.GroupOf("w1");
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(
      g->representative.output_schema()->HasAttribute("solar_radiation"));

  // A tighter query joins: contained, but needs solar_radiation on the
  // wire to split. The engine must recompose (version bump) and the new
  // representative must project it.
  auto result = engine.AddQuery(
      "narrow", Q("SELECT ambient_temperature FROM sensor_00 WHERE "
                  "solar_radiation >= 0 AND solar_radiation <= 900"));
  ASSERT_TRUE(result.ok());
  if (!result->created_new_group) {
    EXPECT_TRUE(result->representative_changed);
    g = engine.GroupOf("narrow");
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(
        g->representative.output_schema()->HasAttribute("solar_radiation"));
    // And the user profile now composes.
    auto profile =
        ComposeUserProfile(g->members.back(), g->representative);
    EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  }
}

TEST_F(SplittableTest, EveryGroupMemberProfileComposes) {
  // Invariant check over a random-ish workload: for every member of every
  // group, the re-tightening profile must compose without error.
  GroupingEngine engine(&catalog_);
  const char* queries[] = {
      "SELECT ambient_temperature FROM sensor_00 WHERE solar_radiation >= "
      "0 AND solar_radiation <= 1000",
      "SELECT ambient_temperature FROM sensor_00 WHERE solar_radiation >= "
      "100 AND solar_radiation <= 900",
      "SELECT ambient_temperature FROM sensor_00",
      "SELECT ambient_temperature, wind_speed FROM sensor_00 WHERE "
      "wind_speed >= 0 AND wind_speed <= 10",
      "SELECT ambient_temperature FROM sensor_00 WHERE wind_speed >= 2 AND "
      "wind_speed <= 8",
      "SELECT relative_humidity FROM sensor_00 WHERE relative_humidity >= "
      "20 AND relative_humidity <= 60",
  };
  int i = 0;
  for (const char* cql : queries) {
    ASSERT_TRUE(
        engine.AddQuery(StrFormat("q%d", i++), Q(cql)).ok());
  }
  for (const auto& [gid, group] : engine.groups()) {
    for (const auto& m : group.members) {
      auto profile = ComposeUserProfile(m, group.representative);
      EXPECT_TRUE(profile.ok()) << profile.status().ToString();
    }
  }
}

}  // namespace
}  // namespace cosmos
