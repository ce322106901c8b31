#include "spe/plan.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "harness/oracle.h"
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
  plan->Push(0, Open(1, 2, 50.0, 0));
  plan->Push(0, Open(2, 2, 150.0, 1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].num_values(), 2u);
  EXPECT_EQ(out[0].GetAttribute("itemID")->AsInt64(), 2);
  EXPECT_EQ(plan->tuples_in(), 2u);
  EXPECT_EQ(plan->tuples_out(), 1u);
}

// Ports are the plan's input streams in FROM order; a stream the query
// does not read has no port, so a caller binding ports never feeds it.
TEST_F(PlanTest, IgnoresForeignStreams) {
  auto plan = MustBuild("SELECT itemID FROM OpenAuction");
  EXPECT_EQ(plan->input_streams(), std::vector<std::string>{"OpenAuction"});
  auto join = MustBuild(
      "SELECT O.itemID FROM OpenAuction O, ClosedAuction C "
      "WHERE O.itemID = C.itemID");
  EXPECT_EQ(join->input_streams(),
            (std::vector<std::string>{"OpenAuction", "ClosedAuction"}));
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
  plan->Push(0, Tuple(projected_schema, {Value(int64_t{5}), Value(20.0)}, 0));
  EXPECT_EQ(n, 1);
}

TEST_F(PlanTest, JoinPlanProducesQualifiedOutputs) {
  auto plan = MustBuild(
      "SELECT O.itemID, C.buyerID FROM OpenAuction [Range 3 Hour] O, "
      "ClosedAuction [Now] C WHERE O.itemID = C.itemID");
  std::vector<Tuple> out;
  plan->SetSink([&](const Tuple& t) { out.push_back(t); });
  Timestamp t0 = 0;
  plan->Push(0, Open(1, 10, 100, t0));
  plan->Push(1, Closed(1, 42, t0 + kHour));
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
  plan->Push(0, Open(1, 1, 1, 0));
  plan->Push(1, Closed(1, 1, 2 * kHour));  // within 3h
  EXPECT_EQ(n, 1);
  plan->Push(0, Open(2, 1, 1, 3 * kHour));
  plan->Push(1, Closed(2, 1, 7 * kHour));  // 4h later: out
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
    plan->Push(0, *t);
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
  (*plan)->Push(0, Open(1, 1, 10, t0));
  (*plan)->Push(2, sensor_tuple(t0 + kHour));
  (*plan)->Push(1, Closed(1, 2, t0 + kHour));  // same instant
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].GetAttribute("O.itemID")->AsInt64(), 1);
  EXPECT_EQ(out[0].GetAttribute("C.buyerID")->AsInt64(), 2);
  EXPECT_EQ(out[0].GetAttribute("S.station_id")->AsInt64(), 0);
}

TEST_F(PlanTest, NineWayJoinRejected) {
  Catalog c;
  std::string from;
  for (int i = 0; i < 9; ++i) {
    std::string name = StrFormat("t%d", i);
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

// A self-join reads one stream on two ports. Pushing each tuple on both,
// in port order, emits exactly what the name-matching reference emits.
TEST_F(PlanTest, SelfJoinSameStreamFeedsBothPorts) {
  auto analyzed = ParseAndAnalyze(
      "SELECT A.itemID FROM OpenAuction A, OpenAuction B "
      "WHERE A.itemID = B.itemID",
      catalog_, "r");
  ASSERT_TRUE(analyzed.ok());
  auto plan = QueryPlan::Build(*analyzed);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ((*plan)->input_streams(),
            (std::vector<std::string>{"OpenAuction", "OpenAuction"}));
  std::vector<Tuple> out;
  (*plan)->SetSink([&](const Tuple& t) { out.push_back(t); });
  std::vector<std::pair<std::string, Tuple>> log;
  log.emplace_back("OpenAuction", Open(1, 1, 1, 0));
  log.emplace_back("OpenAuction", Open(2, 1, 1, 1));
  log.emplace_back("OpenAuction", Open(1, 1, 1, 2));
  for (const auto& [stream, tuple] : log) {
    (*plan)->Push(0, tuple);
    (*plan)->Push(1, tuple);
  }
  // Item 1 twice and item 2 once: 2 * 2 + 1 pairs, each with itself.
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ((*plan)->tuples_in(), 6u);
  const std::vector<Tuple> reference =
      GroundTruthOracle::Evaluate(*analyzed, log);
  ASSERT_EQ(out.size(), reference.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], reference[i]);
}

// The name-matching reference engine (the DST oracle) stops feeding a
// removed query and reports a second removal as NotFound.
TEST_F(PlanTest, EngineRemoveQueryStopsResults) {
  GroundTruthOracle engine(&catalog_);
  ASSERT_TRUE(engine.Submit("q", "SELECT itemID FROM OpenAuction").ok());
  engine.Inject("OpenAuction", Open(1, 1, 1, 0));
  ASSERT_EQ(engine.ResultsFor("q").size(), 1u);
  ASSERT_TRUE(engine.Remove("q").ok());
  EXPECT_EQ(engine.Remove("nope").code(), StatusCode::kNotFound);
  engine.Inject("OpenAuction", Open(2, 1, 1, 1));
  EXPECT_EQ(engine.ResultsFor("q").size(), 1u);
}

// Removing one of several queries on a shared stream leaves the others
// consuming it, including a query that reads the stream on two ports.
TEST_F(PlanTest, EngineRemoveQueryKeepsOtherConsumers) {
  GroundTruthOracle engine(&catalog_);
  ASSERT_TRUE(engine.Submit("q1", "SELECT itemID FROM OpenAuction").ok());
  ASSERT_TRUE(engine
                  .Submit("q2",
                          "SELECT O.itemID FROM OpenAuction [Range 1 Hour] O, "
                          "ClosedAuction [Now] C WHERE O.itemID = C.itemID")
                  .ok());
  ASSERT_TRUE(engine
                  .Submit("q3",
                          "SELECT itemID FROM OpenAuction "
                          "WHERE start_price > 100")
                  .ok());
  ASSERT_TRUE(engine
                  .Submit("q4",
                          "SELECT A.itemID FROM OpenAuction A, OpenAuction B "
                          "WHERE A.itemID = B.itemID")
                  .ok());
  ASSERT_TRUE(engine.Remove("q2").ok());
  ASSERT_TRUE(engine.Remove("q3").ok());
  engine.Inject("OpenAuction", Open(1, 1, 150, 0));
  engine.Inject("ClosedAuction", Closed(1, 2, 1));
  EXPECT_EQ(engine.ResultsFor("q1").size(), 1u);
  // The one tuple entered both ports of the self-join and joined itself.
  EXPECT_EQ(engine.ResultsFor("q4").size(), 1u);
  EXPECT_EQ(engine.ResultsFor("q2").size(), 0u);
  EXPECT_EQ(engine.ResultsFor("q3").size(), 0u);
}

}  // namespace
}  // namespace cosmos
