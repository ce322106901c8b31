#include "spe/plan.h"

#include <gtest/gtest.h>

#include "spe/engine.h"
#include "stream/auction_dataset.h"
#include "stream/sensor_dataset.h"

namespace cosmos {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AuctionDataset auctions;
    ASSERT_TRUE(auctions.RegisterAll(catalog_).ok());
    SensorDataset sensors;
    ASSERT_TRUE(sensors.RegisterAll(catalog_).ok());
  }

  std::unique_ptr<QueryPlan> MustBuild(const std::string& cql) {
    auto analyzed = ParseAndAnalyze(cql, catalog_, "r");
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    auto plan = QueryPlan::Build(*analyzed);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  Tuple Open(int64_t item, int64_t seller, double price, Timestamp ts) {
    return Tuple(AuctionDataset::OpenAuctionSchema(),
                 {Value(item), Value(seller), Value(price),
                  Value(static_cast<int64_t>(ts))},
                 ts);
  }
  Tuple Closed(int64_t item, int64_t buyer, Timestamp ts) {
    return Tuple(AuctionDataset::ClosedAuctionSchema(),
                 {Value(item), Value(buyer), Value(static_cast<int64_t>(ts))},
                 ts);
  }

  Catalog catalog_;
};

TEST_F(PlanTest, SelectProjectPipeline) {
  auto plan = MustBuild(
      "SELECT itemID, start_price FROM OpenAuction [Range 1 Hour] WHERE "
      "start_price > 100");
  std::vector<Tuple> out;
  plan->SetSink([&](const Tuple& t) { out.push_back(t); });
  plan->Push("OpenAuction", Open(1, 2, 50.0, 0));
  plan->Push("OpenAuction", Open(2, 2, 150.0, 1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].num_values(), 2u);
  EXPECT_EQ(out[0].GetAttribute("itemID")->AsInt64(), 2);
  EXPECT_EQ(plan->tuples_in(), 2u);
  EXPECT_EQ(plan->tuples_out(), 1u);
}

TEST_F(PlanTest, IgnoresForeignStreams) {
  auto plan = MustBuild("SELECT itemID FROM OpenAuction");
  int n = 0;
  plan->SetSink([&](const Tuple&) { ++n; });
  plan->Push("ClosedAuction", Closed(1, 1, 0));
  EXPECT_EQ(n, 0);
  EXPECT_EQ(plan->tuples_in(), 0u);
}

TEST_F(PlanTest, InputSchemasAreProjected) {
  auto plan = MustBuild(
      "SELECT itemID FROM OpenAuction WHERE start_price > 10");
  ASSERT_EQ(plan->input_schemas().size(), 1u);
  // Referenced: itemID + start_price (not sellerID/timestamp).
  EXPECT_EQ(plan->input_schemas()[0]->num_attributes(), 2u);
}

TEST_F(PlanTest, AcceptsProjectedInputTuples) {
  // The CBN delivers pre-projected tuples; the plan must cope.
  auto plan = MustBuild(
      "SELECT itemID FROM OpenAuction WHERE start_price > 10");
  auto projected_schema = std::make_shared<Schema>(
      "OpenAuction", std::vector<AttributeDef>{
                         {"itemID", ValueType::kInt64},
                         {"start_price", ValueType::kDouble}});
  int n = 0;
  plan->SetSink([&](const Tuple&) { ++n; });
  plan->Push("OpenAuction",
             Tuple(projected_schema, {Value(int64_t{5}), Value(20.0)}, 0));
  EXPECT_EQ(n, 1);
}

TEST_F(PlanTest, JoinPlanProducesQualifiedOutputs) {
  auto plan = MustBuild(
      "SELECT O.itemID, C.buyerID FROM OpenAuction [Range 3 Hour] O, "
      "ClosedAuction [Now] C WHERE O.itemID = C.itemID");
  std::vector<Tuple> out;
  plan->SetSink([&](const Tuple& t) { out.push_back(t); });
  Timestamp t0 = 0;
  plan->Push("OpenAuction", Open(1, 10, 100, t0));
  plan->Push("ClosedAuction", Closed(1, 42, t0 + kHour));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].GetAttribute("O.itemID")->AsInt64(), 1);
  EXPECT_EQ(out[0].GetAttribute("C.buyerID")->AsInt64(), 42);
}

TEST_F(PlanTest, JoinRespectsWindows) {
  auto plan = MustBuild(
      "SELECT O.itemID FROM OpenAuction [Range 3 Hour] O, ClosedAuction "
      "[Now] C WHERE O.itemID = C.itemID");
  int n = 0;
  plan->SetSink([&](const Tuple&) { ++n; });
  plan->Push("OpenAuction", Open(1, 1, 1, 0));
  plan->Push("ClosedAuction", Closed(1, 1, 2 * kHour));  // within 3h
  EXPECT_EQ(n, 1);
  plan->Push("OpenAuction", Open(2, 1, 1, 3 * kHour));
  plan->Push("ClosedAuction", Closed(2, 1, 7 * kHour));  // 4h later: out
  EXPECT_EQ(n, 1);
}

TEST_F(PlanTest, AggregatePlan) {
  auto plan = MustBuild(
      "SELECT station_id, COUNT(*) FROM sensor_00 [Range 1 Hour] GROUP BY "
      "station_id");
  std::vector<Tuple> out;
  plan->SetSink([&](const Tuple& t) { out.push_back(t); });
  SensorDataset sensors;
  auto gen = sensors.MakeGenerator(0);
  int pushed = 0;
  while (auto t = gen->Next()) {
    plan->Push("sensor_00", *t);
    ++pushed;
    if (pushed >= 5) break;
  }
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.back().value(1).AsInt64(), 5);
}

TEST_F(PlanTest, ThreeWayJoinBuildsAndRuns) {
  // Correlate open/closed auctions with a sensor reading in the same
  // instant ([Now] windows all around except the auction window).
  auto analyzed = ParseAndAnalyze(
      "SELECT O.itemID, C.buyerID, S.station_id FROM OpenAuction [Range 3 "
      "Hour] O, ClosedAuction [Now] C, sensor_00 [Now] S "
      "WHERE O.itemID = C.itemID",
      catalog_, "r");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  auto plan = QueryPlan::Build(*analyzed);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<Tuple> out;
  (*plan)->SetSink([&](const Tuple& t) { out.push_back(t); });

  SensorDataset sensors;
  auto sensor_schema = sensors.SchemaOf(0);
  auto sensor_tuple = [&](Timestamp ts) {
    std::vector<Value> values;
    for (const auto& def : sensor_schema->attributes()) {
      if (def.type == ValueType::kInt64) {
        values.emplace_back(int64_t{0});
      } else {
        values.emplace_back(1.0);
      }
    }
    return Tuple(sensor_schema, std::move(values), ts);
  };

  Timestamp t0 = kHour;
  (*plan)->Push("OpenAuction", Open(1, 1, 10, t0));
  (*plan)->Push("sensor_00", sensor_tuple(t0 + kHour));
  (*plan)->Push("ClosedAuction", Closed(1, 2, t0 + kHour));  // same instant
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].GetAttribute("O.itemID")->AsInt64(), 1);
  EXPECT_EQ(out[0].GetAttribute("C.buyerID")->AsInt64(), 2);
  EXPECT_EQ(out[0].GetAttribute("S.station_id")->AsInt64(), 0);
}

TEST_F(PlanTest, NineWayJoinRejected) {
  Catalog c;
  std::string from;
  for (int i = 0; i < 9; ++i) {
    std::string name = "t" + std::to_string(i);
    (void)c.RegisterStream(std::make_shared<Schema>(
        name, std::vector<AttributeDef>{{"k", ValueType::kInt64}}));
    if (i > 0) from += ", ";
    from += name;
  }
  auto analyzed =
      ParseAndAnalyze("SELECT t0.k FROM " + from, c, "r");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(QueryPlan::Build(*analyzed).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(PlanTest, JoinAggregateUnimplemented) {
  auto analyzed = ParseAndAnalyze(
      "SELECT COUNT(*) FROM OpenAuction O, ClosedAuction C "
      "WHERE O.itemID = C.itemID GROUP BY O.sellerID",
      catalog_, "r");
  // Analyzer accepts it; plan builder rejects it.
  if (analyzed.ok()) {
    auto plan = QueryPlan::Build(*analyzed);
    EXPECT_EQ(plan.status().code(), StatusCode::kUnimplemented);
  }
}

TEST_F(PlanTest, SelfJoinSameStreamFeedsBothPorts) {
  auto analyzed = ParseAndAnalyze(
      "SELECT A.itemID FROM OpenAuction A, OpenAuction B "
      "WHERE A.itemID = B.itemID",
      catalog_, "r");
  ASSERT_TRUE(analyzed.ok());
  auto plan = QueryPlan::Build(*analyzed);
  ASSERT_TRUE(plan.ok());
  int n = 0;
  (*plan)->SetSink([&](const Tuple&) { ++n; });
  (*plan)->Push("OpenAuction", Open(1, 1, 1, 0));
  // The single tuple entered both ports and joins with itself.
  EXPECT_GE(n, 1);
}

TEST_F(PlanTest, EngineFansOutToAllConsumingPlans) {
  SpeEngine engine;
  auto q1 = ParseAndAnalyze("SELECT itemID FROM OpenAuction", catalog_, "r1");
  auto q2 = ParseAndAnalyze(
      "SELECT itemID FROM OpenAuction WHERE start_price > 100", catalog_,
      "r2");
  ASSERT_TRUE(q1.ok() && q2.ok());
  std::map<std::string, int> results;
  auto sink = [&](const std::string& id, const Tuple&) { ++results[id]; };
  ASSERT_TRUE(engine.InstallQuery("q1", *q1, sink).ok());
  ASSERT_TRUE(engine.InstallQuery("q2", *q2, sink).ok());
  EXPECT_EQ(engine.num_queries(), 2u);
  engine.PushSourceTuple("OpenAuction", Open(1, 1, 50, 0));
  engine.PushSourceTuple("OpenAuction", Open(2, 1, 150, 1));
  EXPECT_EQ(results["q1"], 2);
  EXPECT_EQ(results["q2"], 1);
  EXPECT_EQ(engine.results_emitted(), 3u);
}

TEST_F(PlanTest, EngineRemoveQueryStopsResults) {
  SpeEngine engine;
  auto q = ParseAndAnalyze("SELECT itemID FROM OpenAuction", catalog_, "r");
  int n = 0;
  ASSERT_TRUE(engine
                  .InstallQuery("q", *q,
                                [&](const std::string&, const Tuple&) { ++n; })
                  .ok());
  ASSERT_TRUE(engine.RemoveQuery("q").ok());
  EXPECT_EQ(engine.RemoveQuery("q").code(), StatusCode::kNotFound);
  engine.PushSourceTuple("OpenAuction", Open(1, 1, 1, 0));
  EXPECT_EQ(n, 0);
}

// Removing one of several plans on a shared stream leaves the others
// consuming it, including a plan that reads the stream on two ports.
TEST_F(PlanTest, EngineRemoveQueryKeepsOtherConsumers) {
  SpeEngine engine;
  std::map<std::string, int> results;
  auto sink = [&](const std::string& id, const Tuple&) { ++results[id]; };
  auto q1 = ParseAndAnalyze("SELECT itemID FROM OpenAuction", catalog_, "r1");
  auto q2 = ParseAndAnalyze(
      "SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, "
      "ClosedAuction [Now] C WHERE O.itemID = C.itemID",
      catalog_, "r2");
  auto q3 = ParseAndAnalyze(
      "SELECT itemID FROM OpenAuction WHERE start_price > 100", catalog_,
      "r3");
  auto q4 = ParseAndAnalyze(
      "SELECT A.itemID FROM OpenAuction A, OpenAuction B "
      "WHERE A.itemID = B.itemID",
      catalog_, "r4");
  ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok() && q4.ok());
  ASSERT_TRUE(engine.InstallQuery("q1", *q1, sink).ok());
  ASSERT_TRUE(engine.InstallQuery("q2", *q2, sink).ok());
  ASSERT_TRUE(engine.InstallQuery("q3", *q3, sink).ok());
  ASSERT_TRUE(engine.InstallQuery("q4", *q4, sink).ok());
  ASSERT_TRUE(engine.RemoveQuery("q2").ok());
  ASSERT_TRUE(engine.RemoveQuery("q3").ok());
  EXPECT_EQ(engine.num_queries(), 2u);
  engine.PushSourceTuple("OpenAuction", Open(1, 1, 150, 0));
  engine.PushSourceTuple("ClosedAuction", Closed(1, 2, 1));
  EXPECT_EQ(results["q1"], 1);
  EXPECT_GE(results["q4"], 1);
  EXPECT_EQ(results.count("q2"), 0u);
  EXPECT_EQ(results.count("q3"), 0u);
}

TEST_F(PlanTest, EngineDuplicateIdRejected) {
  SpeEngine engine;
  auto q = ParseAndAnalyze("SELECT itemID FROM OpenAuction", catalog_, "r");
  ASSERT_TRUE(engine.InstallQuery("q", *q, nullptr).ok());
  EXPECT_EQ(engine.InstallQuery("q", *q, nullptr).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace cosmos
