#include "core/system.h"

#include <gtest/gtest.h>

#include "stream/auction_dataset.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

DisseminationTree ChainTree(int n) {
  std::vector<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) {
    edges.push_back(Edge{i, i + 1, 1.0});
  }
  return DisseminationTree::FromEdges(n, edges).value();
}

TEST(System, EndToEndSingleQuery) {
  CosmosSystem system(ChainTree(4));
  ASSERT_TRUE(
      system.RegisterSource(AuctionDataset::OpenAuctionSchema(), 1.0, 0)
          .ok());
  ASSERT_TRUE(system.AddProcessor(1).ok());
  int hits = 0;
  auto id = system.SubmitQuery(
      "SELECT itemID FROM OpenAuction WHERE start_price > 100", 3,
      [&](const std::string&, const Tuple&) { ++hits; });
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto open = AuctionDataset::OpenAuctionSchema();
  ASSERT_TRUE(system
                  .PublishSourceTuple(
                      "OpenAuction",
                      Tuple(open, {Value(int64_t{1}), Value(int64_t{1}),
                                   Value(150.0), Value(int64_t{0})},
                            0))
                  .ok());
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(system.TotalQueries(), 1u);
  EXPECT_EQ(system.TotalGroups(), 1u);
}

// The SPE runs the analyzed representative, so a constant with 7
// significant digits stays exact. As CQL text it would print at 6 digits,
// and >= 456.7896 would run as >= 456.79 and drop 456.7898.
TEST(System, RepresentativeKeepsFullPrecisionConstants) {
  CosmosSystem system(ChainTree(4));
  ASSERT_TRUE(
      system.RegisterSource(AuctionDataset::OpenAuctionSchema(), 1.0, 0)
          .ok());
  ASSERT_TRUE(system.AddProcessor(1).ok());
  int hits = 0;
  auto id = system.SubmitQuery(
      "SELECT itemID FROM OpenAuction WHERE start_price >= 456.7896", 3,
      [&](const std::string&, const Tuple&) { ++hits; });
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto open = AuctionDataset::OpenAuctionSchema();
  int64_t item = 0;
  for (double price : {456.7898, 500.0, 456.7895}) {
    ASSERT_TRUE(system
                    .PublishSourceTuple(
                        "OpenAuction",
                        Tuple(open, {Value(++item), Value(int64_t{1}),
                                     Value(price), Value(item)},
                              item))
                    .ok());
  }
  EXPECT_EQ(hits, 2);  // 456.7898 and 500; 456.7895 is below the bound
}

TEST(System, QueriesWithoutProcessorsFail) {
  CosmosSystem system(ChainTree(2));
  auto id = system.SubmitQuery("SELECT x FROM S", 0, nullptr);
  EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
}

TEST(System, BadCqlSurfacesParseError) {
  CosmosSystem system(ChainTree(2));
  (void)system.RegisterSource(AuctionDataset::OpenAuctionSchema(), 1.0, 0);
  ASSERT_TRUE(system.AddProcessor(0).ok());
  auto id = system.SubmitQuery("SELECT FROM garbage", 1, nullptr);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(system.TotalQueries(), 0u);
}

TEST(System, UnknownStreamPublishFails) {
  CosmosSystem system(ChainTree(2));
  auto open = AuctionDataset::OpenAuctionSchema();
  Tuple t(open,
          {Value(int64_t{1}), Value(int64_t{1}), Value(1.0),
           Value(int64_t{0})},
          0);
  EXPECT_EQ(system.PublishSourceTuple("Nope", t).code(),
            StatusCode::kNotFound);
}

TEST(System, ProcessorValidation) {
  CosmosSystem system(ChainTree(3));
  EXPECT_FALSE(system.AddProcessor(-1).ok());
  EXPECT_FALSE(system.AddProcessor(99).ok());
  ASSERT_TRUE(system.AddProcessor(1).ok());
  EXPECT_EQ(system.AddProcessor(1).code(), StatusCode::kAlreadyExists);
  EXPECT_NE(system.processor(1), nullptr);
  EXPECT_EQ(system.processor(2), nullptr);
}

TEST(System, SignatureAffinityRoutesLikeQueriesTogether) {
  CosmosSystem system(ChainTree(6));
  SensorDataset sensors;
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(
        system.RegisterSource(sensors.SchemaOf(k), 1.0, 0).ok());
  }
  ASSERT_TRUE(system.AddProcessor(1).ok());
  ASSERT_TRUE(system.AddProcessor(2).ok());
  for (int i = 0; i < 6; ++i) {
    auto id = system.SubmitQuery(
        "SELECT ambient_temperature FROM sensor_00", 3, nullptr);
    ASSERT_TRUE(id.ok());
  }
  // All six identical queries landed on one processor => one group total.
  EXPECT_EQ(system.TotalGroups(), 1u);
  EXPECT_EQ(system.TotalQueries(), 6u);
}

TEST(System, RemoveQueryCleansUp) {
  CosmosSystem system(ChainTree(3));
  (void)system.RegisterSource(AuctionDataset::OpenAuctionSchema(), 1.0, 0);
  ASSERT_TRUE(system.AddProcessor(1).ok());
  int hits = 0;
  auto id = system.SubmitQuery(
      "SELECT itemID FROM OpenAuction", 2,
      [&](const std::string&, const Tuple&) { ++hits; });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(system.RemoveQuery(*id).ok());
  EXPECT_EQ(system.RemoveQuery(*id).code(), StatusCode::kNotFound);
  auto open = AuctionDataset::OpenAuctionSchema();
  (void)system.PublishSourceTuple(
      "OpenAuction", Tuple(open,
                           {Value(int64_t{1}), Value(int64_t{1}), Value(1.0),
                            Value(int64_t{0})},
                           0));
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(system.TotalQueries(), 0u);
}

TEST(System, MergedRatesAggregateAcrossProcessors) {
  CosmosSystem system(ChainTree(4));
  SensorDataset sensors;
  (void)system.RegisterSource(sensors.SchemaOf(0), 1.0, 0);
  ASSERT_TRUE(system.AddProcessor(1).ok());
  for (int i = 0; i < 4; ++i) {
    (void)system.SubmitQuery("SELECT ambient_temperature FROM sensor_00", 2,
                             nullptr);
  }
  EXPECT_GT(system.TotalMemberRate(), 0.0);
  EXPECT_LE(system.TotalRepresentativeRate(), system.TotalMemberRate());
}

TEST(System, ReplayDrivesWholePipeline) {
  CosmosSystem system(ChainTree(3));
  SensorDatasetOptions sopts;
  sopts.num_stations = 3;
  sopts.duration = 10 * kMinute;
  SensorDataset sensors(sopts);
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(system
                    .RegisterSource(sensors.SchemaOf(k),
                                    sensors.RatePerStation(), 0)
                    .ok());
  }
  ASSERT_TRUE(system.AddProcessor(1).ok());
  int hits = 0;
  ASSERT_TRUE(system
                  .SubmitQuery("SELECT ambient_temperature FROM sensor_01",
                               2,
                               [&](const std::string&, const Tuple&) {
                                 ++hits;
                               })
                  .ok());
  auto replay = sensors.MakeReplay();
  ASSERT_TRUE(system.Replay(*replay).ok());
  EXPECT_EQ(hits, 20);  // 10 min at 30s period
}

}  // namespace
}  // namespace cosmos
