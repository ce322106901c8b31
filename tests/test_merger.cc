#include "core/merger.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/profile_composer.h"
#include "query/unparser.h"
#include "stream/auction_dataset.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

class MergerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AuctionDataset auctions;
    ASSERT_TRUE(auctions.RegisterAll(catalog_).ok());
    SensorDataset sensors;
    ASSERT_TRUE(sensors.RegisterAll(catalog_).ok());
  }

  AnalyzedQuery Q(const std::string& cql, const std::string& name = "r") {
    auto q = ParseAndAnalyze(cql, catalog_, name);
    EXPECT_TRUE(q.ok()) << cql << ": " << q.status().ToString();
    return *q;
  }

  AnalyzedQuery Merge(const std::vector<const AnalyzedQuery*>& members) {
    auto rep = ComposeRepresentative(members, catalog_, "rep");
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
    return *rep;
  }

  Catalog catalog_;
};

TEST_F(MergerTest, ReproducesTable1Q3) {
  AnalyzedQuery q1 = Q(
      "SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C "
      "WHERE O.itemID = C.itemID");
  AnalyzedQuery q2 = Q(
      "SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp "
      "FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C "
      "WHERE O.itemID = C.itemID");
  AnalyzedQuery rep = Merge({&q1, &q2});

  // The paper's q3: 5-hour window, O.* plus C.buyerID and C.timestamp.
  EXPECT_EQ(rep.WindowSize(0), 5 * kHour);
  EXPECT_EQ(rep.WindowSize(1), 0);
  EXPECT_TRUE(QueryContains(rep, q1));
  EXPECT_TRUE(QueryContains(rep, q2));
  // Projects everything q3 projects.
  EXPECT_TRUE(rep.output_schema()->HasAttribute("O.itemID"));
  EXPECT_TRUE(rep.output_schema()->HasAttribute("O.sellerID"));
  EXPECT_TRUE(rep.output_schema()->HasAttribute("O.start_price"));
  EXPECT_TRUE(rep.output_schema()->HasAttribute("O.timestamp"));
  EXPECT_TRUE(rep.output_schema()->HasAttribute("C.buyerID"));
  EXPECT_TRUE(rep.output_schema()->HasAttribute("C.timestamp"));
}

TEST_F(MergerTest, SelectionsHull) {
  AnalyzedQuery q1 = Q(
      "SELECT itemID FROM OpenAuction WHERE start_price >= 10 AND "
      "start_price <= 20");
  AnalyzedQuery q2 = Q(
      "SELECT itemID FROM OpenAuction WHERE start_price >= 15 AND "
      "start_price <= 30");
  AnalyzedQuery rep = Merge({&q1, &q2});
  EXPECT_EQ(rep.local_selection(0).ConstraintFor("start_price").interval,
            Interval(10, false, 30, false));
  // Differing selections force start_price into the projection.
  EXPECT_TRUE(rep.output_schema()->HasAttribute("start_price"));
}

TEST_F(MergerTest, IdenticalSelectionsStayTight) {
  AnalyzedQuery q1 = Q("SELECT itemID FROM OpenAuction WHERE start_price > 10");
  AnalyzedQuery q2 = Q("SELECT sellerID FROM OpenAuction WHERE start_price > 10");
  AnalyzedQuery rep = Merge({&q1, &q2});
  EXPECT_EQ(rep.local_selection(0).ConstraintFor("start_price").interval,
            Interval::AtLeast(10, /*open=*/true));
  // No re-filtering needed; start_price not forced into the projection.
  EXPECT_FALSE(rep.output_schema()->HasAttribute("start_price"));
  EXPECT_TRUE(rep.output_schema()->HasAttribute("itemID"));
  EXPECT_TRUE(rep.output_schema()->HasAttribute("sellerID"));
}

TEST_F(MergerTest, WindowsDifferAddTimestampsForJoins) {
  AnalyzedQuery q1 = Q(
      "SELECT O.sellerID FROM OpenAuction [Range 3 Hour] O, ClosedAuction "
      "[Now] C WHERE O.itemID = C.itemID");
  AnalyzedQuery q2 = Q(
      "SELECT O.sellerID FROM OpenAuction [Range 5 Hour] O, ClosedAuction "
      "[Now] C WHERE O.itemID = C.itemID");
  AnalyzedQuery rep = Merge({&q1, &q2});
  EXPECT_TRUE(rep.output_schema()->HasAttribute("O.timestamp"));
  EXPECT_TRUE(rep.output_schema()->HasAttribute("C.timestamp"));
}

TEST_F(MergerTest, SingleMemberIsRenamedIdentity) {
  AnalyzedQuery q = Q("SELECT itemID FROM OpenAuction WHERE start_price > 5");
  AnalyzedQuery rep = Merge({&q});
  EXPECT_TRUE(QueryContains(rep, q));
  EXPECT_TRUE(QueryContains(q, rep));
  EXPECT_EQ(rep.output_schema()->stream_name(), "rep");
}

TEST_F(MergerTest, ManyMembersFold) {
  std::vector<AnalyzedQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(Q(StrFormat(
        "SELECT itemID FROM OpenAuction WHERE start_price >= %d AND "
        "start_price <= %d",
        i * 10, i * 10 + 15)));
  }
  std::vector<const AnalyzedQuery*> members;
  for (const auto& q : queries) members.push_back(&q);
  AnalyzedQuery rep = Merge(members);
  for (const auto& q : queries) {
    EXPECT_TRUE(QueryContains(rep, q));
  }
  EXPECT_EQ(rep.local_selection(0).ConstraintFor("start_price").interval,
            Interval(0, false, 55, false));
}

TEST_F(MergerTest, AggregateMembersMustBeEquivalent) {
  AnalyzedQuery a1 = Q(
      "SELECT station_id, AVG(ambient_temperature) FROM sensor_00 "
      "[Range 1 Hour] GROUP BY station_id");
  AnalyzedQuery a2 = Q(
      "SELECT station_id, AVG(ambient_temperature) FROM sensor_00 "
      "[Range 1 Hour] GROUP BY station_id");
  EXPECT_TRUE(MergeCompatible(a1, a2));
  AnalyzedQuery rep = Merge({&a1, &a2});
  EXPECT_TRUE(QueryContains(rep, a1));
  EXPECT_TRUE(QueryContains(rep, a2));

  AnalyzedQuery different_window = Q(
      "SELECT station_id, AVG(ambient_temperature) FROM sensor_00 "
      "[Range 2 Hour] GROUP BY station_id");
  EXPECT_FALSE(MergeCompatible(a1, different_window));
}

TEST_F(MergerTest, IncompatibleStreamSetsRejected) {
  AnalyzedQuery a = Q("SELECT itemID FROM OpenAuction");
  AnalyzedQuery b = Q("SELECT itemID FROM ClosedAuction");
  EXPECT_FALSE(MergeCompatible(a, b));
  auto rep = ComposeRepresentative({&a, &b}, catalog_, "rep");
  EXPECT_FALSE(rep.ok());
}

TEST_F(MergerTest, DifferentJoinSetsRejected) {
  AnalyzedQuery joined = Q(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C WHERE O.itemID "
      "= C.itemID");
  AnalyzedQuery cross = Q(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C WHERE "
      "O.sellerID > 5");
  EXPECT_FALSE(MergeCompatible(joined, cross));
}

TEST_F(MergerTest, DifferentResidualsRejected) {
  AnalyzedQuery a = Q(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C WHERE O.itemID "
      "= C.itemID AND O.timestamp - C.timestamp <= 0");
  AnalyzedQuery b = Q(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C WHERE O.itemID "
      "= C.itemID");
  EXPECT_FALSE(MergeCompatible(a, b));
}

TEST_F(MergerTest, SignatureGroupsCompatibleQueries) {
  AnalyzedQuery a = Q("SELECT itemID FROM OpenAuction WHERE start_price > 1");
  AnalyzedQuery b =
      Q("SELECT sellerID FROM OpenAuction WHERE start_price > 99");
  EXPECT_EQ(MergeSignature(a), MergeSignature(b));
  AnalyzedQuery c = Q("SELECT itemID FROM ClosedAuction");
  EXPECT_NE(MergeSignature(a), MergeSignature(c));
  // Aliases do not change the signature.
  AnalyzedQuery d1 = Q(
      "SELECT X.itemID FROM OpenAuction X, ClosedAuction Y WHERE X.itemID "
      "= Y.itemID");
  AnalyzedQuery d2 = Q(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C WHERE O.itemID "
      "= C.itemID");
  EXPECT_EQ(MergeSignature(d1), MergeSignature(d2));
  // Cross residuals are compared alias-free too: two aliasings of one
  // residual share a signature, a different residual does not.
  AnalyzedQuery r1 = Q(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C WHERE O.itemID "
      "= C.itemID AND O.timestamp - C.timestamp <= 0");
  AnalyzedQuery r2 = Q(
      "SELECT X.sellerID FROM OpenAuction X, ClosedAuction Y WHERE X.itemID "
      "= Y.itemID AND X.timestamp - Y.timestamp <= 0");
  AnalyzedQuery r3 = Q(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C WHERE O.itemID "
      "= C.itemID AND O.timestamp - C.timestamp <= 5");
  EXPECT_EQ(MergeSignature(r1), MergeSignature(r2));
  EXPECT_TRUE(MergeCompatible(r1, r2));
  EXPECT_NE(MergeSignature(r1), MergeSignature(r3));
  EXPECT_NE(MergeSignature(r1), MergeSignature(d2));
}

TEST_F(MergerTest, RepresentativeIsUnparsableAndReparsable) {
  AnalyzedQuery q1 = Q(
      "SELECT O.* FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C "
      "WHERE O.itemID = C.itemID");
  AnalyzedQuery q2 = Q(
      "SELECT O.itemID, C.buyerID FROM OpenAuction [Range 5 Hour] O, "
      "ClosedAuction [Now] C WHERE O.itemID = C.itemID");
  AnalyzedQuery rep = Merge({&q1, &q2});
  std::string cql = Unparse(rep);
  auto reparsed = ParseAndAnalyze(cql, catalog_, "rep");
  ASSERT_TRUE(reparsed.ok()) << cql;
  EXPECT_TRUE(QueryContains(*reparsed, q1));
  EXPECT_TRUE(QueryContains(*reparsed, q2));
}

TEST_F(MergerTest, ThreeWayJoinQueriesMerge) {
  // Same three-stream join shape with different windows and selections.
  AnalyzedQuery q1 = Q(
      "SELECT O.itemID FROM OpenAuction [Range 2 Hour] O, ClosedAuction "
      "[Now] C, sensor_00 [Now] S WHERE O.itemID = C.itemID AND "
      "O.start_price > 100");
  AnalyzedQuery q2 = Q(
      "SELECT O.itemID, C.buyerID FROM OpenAuction [Range 4 Hour] O, "
      "ClosedAuction [Now] C, sensor_00 [Now] S WHERE O.itemID = C.itemID "
      "AND O.start_price > 50");
  ASSERT_TRUE(MergeCompatible(q1, q2));
  AnalyzedQuery rep = Merge({&q1, &q2});
  EXPECT_TRUE(QueryContains(rep, q1));
  EXPECT_TRUE(QueryContains(rep, q2));
  EXPECT_EQ(rep.WindowSize(0), 4 * kHour);
  // Differing windows in a multi-stream query force timestamps into the
  // projection for Lemma-1 re-tightening.
  EXPECT_TRUE(rep.output_schema()->HasAttribute("O.timestamp"));
  EXPECT_TRUE(ComposeUserProfile(q1, rep).ok());
  EXPECT_TRUE(ComposeUserProfile(q2, rep).ok());
}

TEST_F(MergerTest, EmptyMemberListRejected) {
  auto rep = ComposeRepresentative({}, catalog_, "rep");
  EXPECT_FALSE(rep.ok());
}

}  // namespace
}  // namespace cosmos
