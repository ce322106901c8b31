#include "query/analyzer.h"

#include <gtest/gtest.h>

#include "stream/auction_dataset.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AuctionDataset auctions;
    ASSERT_TRUE(auctions.RegisterAll(catalog_).ok());
    SensorDataset sensors;
    ASSERT_TRUE(sensors.RegisterAll(catalog_).ok());
  }

  AnalyzedQuery MustAnalyze(const std::string& cql,
                            const std::string& name = "r") {
    auto q = ParseAndAnalyze(cql, catalog_, name);
    EXPECT_TRUE(q.ok()) << cql << " -> " << q.status().ToString();
    return *q;
  }

  Catalog catalog_;
};

TEST_F(AnalyzerTest, ResolvesSingleSource) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT itemID, start_price FROM OpenAuction [Range 1 Hour]");
  ASSERT_EQ(q.sources().size(), 1u);
  EXPECT_EQ(q.sources()[0].from.stream, "OpenAuction");
  EXPECT_EQ(q.WindowSize(0), kHour);
  ASSERT_EQ(q.output_columns().size(), 2u);
  EXPECT_EQ(q.output_schema()->stream_name(), "r");
  EXPECT_TRUE(q.output_schema()->HasAttribute("itemID"));
}

TEST_F(AnalyzerTest, UnknownStreamFails) {
  auto q = ParseAndAnalyze("SELECT a FROM Nope", catalog_, "r");
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, UnknownColumnFails) {
  auto q = ParseAndAnalyze("SELECT zzz FROM OpenAuction", catalog_, "r");
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, UnknownAliasFails) {
  auto q = ParseAndAnalyze("SELECT X.itemID FROM OpenAuction O", catalog_,
                           "r");
  EXPECT_FALSE(q.ok());
}

TEST_F(AnalyzerTest, DuplicateAliasFails) {
  auto q = ParseAndAnalyze(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction O", catalog_, "r");
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AnalyzerTest, AmbiguousColumnFails) {
  // itemID exists in both auction streams.
  auto q = ParseAndAnalyze(
      "SELECT itemID FROM OpenAuction O, ClosedAuction C", catalog_, "r");
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AnalyzerTest, UnambiguousUnqualifiedColumnResolves) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT start_price FROM OpenAuction O, ClosedAuction C "
      "WHERE O.itemID = C.itemID");
  EXPECT_EQ(q.output_columns()[0].source, 0u);
}

TEST_F(AnalyzerTest, LocalSelectionsSplitPerSource) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, ClosedAuction "
      "[Now] C WHERE O.start_price > 10 AND C.buyerID = 7 AND O.itemID = "
      "C.itemID");
  EXPECT_FALSE(q.local_selection(0).IsTautology());
  EXPECT_FALSE(q.local_selection(1).IsTautology());
  EXPECT_EQ(q.local_selection(0).ConstraintFor("start_price").interval,
            Interval::AtLeast(10, /*open=*/true));
  EXPECT_TRUE(
      q.local_selection(1).ConstraintFor("buyerID").interval.IsPoint());
  ASSERT_EQ(q.equi_joins().size(), 1u);
}

TEST_F(AnalyzerTest, EquiJoinDetected) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C "
      "WHERE O.itemID = C.itemID");
  ASSERT_EQ(q.equi_joins().size(), 1u);
  const EquiJoin& j = q.equi_joins()[0];
  EXPECT_EQ(q.sources()[j.left_source].from.stream, "OpenAuction");
  EXPECT_EQ(q.sources()[j.right_source].from.stream, "ClosedAuction");
  EXPECT_TRUE(q.cross_residual().empty());
}

TEST_F(AnalyzerTest, NonEquiCrossPredicateGoesResidual) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C "
      "WHERE O.itemID = C.itemID AND O.timestamp - C.timestamp <= 0");
  EXPECT_EQ(q.equi_joins().size(), 1u);
  ASSERT_EQ(q.cross_residual().size(), 1u);
}

TEST_F(AnalyzerTest, SelectStarExpandsAllSources) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT * FROM OpenAuction O, ClosedAuction C WHERE O.itemID = "
      "C.itemID");
  EXPECT_EQ(q.output_columns().size(), 4u + 3u);
  // Multi-source output names are qualified.
  EXPECT_TRUE(q.output_schema()->HasAttribute("O.itemID"));
  EXPECT_TRUE(q.output_schema()->HasAttribute("C.buyerID"));
}

TEST_F(AnalyzerTest, QualifiedStarExpandsOneSource) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT O.* FROM OpenAuction O, ClosedAuction C WHERE O.itemID = "
      "C.itemID");
  EXPECT_EQ(q.output_columns().size(), 4u);
}

TEST_F(AnalyzerTest, SingleSourceOutputNamesAreBare) {
  AnalyzedQuery q = MustAnalyze("SELECT itemID FROM OpenAuction");
  EXPECT_TRUE(q.output_schema()->HasAttribute("itemID"));
}

TEST_F(AnalyzerTest, AggregateQueryShape) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT station_id, AVG(ambient_temperature) FROM sensor_00 "
      "[Range 1 Hour] GROUP BY station_id");
  EXPECT_TRUE(q.is_aggregate());
  ASSERT_EQ(q.group_by().size(), 1u);
  ASSERT_EQ(q.aggregates().size(), 1u);
  EXPECT_EQ(q.aggregates()[0].func, AggFunc::kAvg);
  ASSERT_EQ(q.output_schema()->num_attributes(), 2u);
  EXPECT_EQ(q.output_schema()->attribute(1).type, ValueType::kDouble);
}

TEST_F(AnalyzerTest, CountStarOutputIsInt) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT station_id, COUNT(*) FROM sensor_00 GROUP BY station_id");
  EXPECT_EQ(q.output_schema()->attribute(1).type, ValueType::kInt64);
}

TEST_F(AnalyzerTest, NonGroupedColumnWithAggregateFails) {
  auto q = ParseAndAnalyze(
      "SELECT ambient_temperature, COUNT(*) FROM sensor_00 GROUP BY "
      "station_id",
      catalog_, "r");
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AnalyzerTest, GroupByWithoutAggregatesFails) {
  auto q = ParseAndAnalyze("SELECT station_id FROM sensor_00 GROUP BY "
                           "station_id",
                           catalog_, "r");
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AnalyzerTest, SumOverStringFails) {
  auto q = ParseAndAnalyze("SELECT SUM(itemID) FROM OpenAuction", catalog_,
                           "r");
  EXPECT_TRUE(q.ok());  // itemID is numeric
  auto bad = ParseAndAnalyze("SELECT AVG(buyerID) FROM ClosedAuction",
                             catalog_, "r2");
  EXPECT_TRUE(bad.ok());  // also numeric; build a genuinely bad one:
  Catalog c2;
  (void)c2.RegisterStream(std::make_shared<Schema>(
      "T", std::vector<AttributeDef>{{"s", ValueType::kString}}));
  auto worse = ParseAndAnalyze("SELECT SUM(s) FROM T", c2, "r3");
  EXPECT_EQ(worse.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AnalyzerTest, CountStarOnlyForCount) {
  Catalog c2;
  (void)c2.RegisterStream(std::make_shared<Schema>(
      "T", std::vector<AttributeDef>{{"x", ValueType::kInt64}}));
  auto q = ParseAndAnalyze("SELECT SUM(*) FROM T", c2, "r");
  EXPECT_FALSE(q.ok());
}

TEST_F(AnalyzerTest, ReferencedAttributesCoverProjectionAndPredicates) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT O.sellerID FROM OpenAuction [Range 1 Hour] O, ClosedAuction "
      "[Now] C WHERE O.itemID = C.itemID AND O.start_price > 10");
  auto open_refs = q.ReferencedAttributes(0);
  EXPECT_EQ(open_refs.size(), 3u);  // sellerID, itemID, start_price
  auto closed_refs = q.ReferencedAttributes(1);
  EXPECT_EQ(closed_refs.size(), 1u);  // itemID
}

TEST_F(AnalyzerTest, NormalizedWhereIsFullyQualified) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT start_price FROM OpenAuction WHERE start_price > 10");
  ASSERT_NE(q.normalized_where(), nullptr);
  std::vector<const ColumnRefExpr*> cols;
  CollectColumns(q.normalized_where(), &cols);
  for (const auto* c : cols) {
    EXPECT_FALSE(c->qualifier().empty());
  }
}

TEST_F(AnalyzerTest, SourceIndexLookup) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C WHERE O.itemID = "
      "C.itemID");
  EXPECT_EQ(q.SourceIndex("O"), 0);
  EXPECT_EQ(q.SourceIndex("C"), 1);
  EXPECT_EQ(q.SourceIndex("X"), -1);
}

TEST_F(AnalyzerTest, DuplicateOutputNameFails) {
  for (const char* cql :
       {"SELECT itemID, itemID FROM OpenAuction",
        "SELECT sellerID, COUNT(*) AS n, MAX(start_price) AS n FROM "
        "OpenAuction [Range 1 Hour] GROUP BY sellerID"}) {
    auto q = ParseAndAnalyze(cql, catalog_, "r");
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << cql;
  }
}

TEST_F(AnalyzerTest, OutputSchemaPreservesRanges) {
  AnalyzedQuery q = MustAnalyze(
      "SELECT ambient_temperature FROM sensor_00 [Range 1 Hour]");
  auto def = q.output_schema()->FindAttribute("ambient_temperature");
  ASSERT_TRUE(def.ok());
  EXPECT_TRUE(def->has_range);
}

}  // namespace
}  // namespace cosmos
