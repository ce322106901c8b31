// Presentation mapping: the CBN's last hop builds each delivered
// representative-stream tuple in the user query's own result schema (names,
// column order, stream name) before it reaches the user callback.

#include <gtest/gtest.h>

#include "cbn/network.h"
#include "core/merger.h"
#include "core/profile_composer.h"
#include "core/system.h"
#include "stream/auction_dataset.h"

namespace cosmos {
namespace {

class PresentationTest : public ::testing::Test {
 protected:
  void SetUp() override {
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

TEST_F(PresentationTest, UserColumnRepNamesFollowSelectOrder) {
  AnalyzedQuery user = Q(
      "SELECT start_price, itemID FROM OpenAuction WHERE sellerID = 3",
      "user_q");
  auto rep = ComposeRepresentative({&user}, catalog_, "grp");
  ASSERT_TRUE(rep.ok());
  auto names = UserColumnRepNames(user, *rep);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 2u);
  EXPECT_EQ((*names)[0], "start_price");
  EXPECT_EQ((*names)[1], "itemID");
}

// Subscribes `user`'s profile and target on `rep`'s result stream at the
// single node of a CBN, publishes `row` (in rep's output schema) on it and
// returns what the user's callback received.
std::vector<std::pair<std::string, Tuple>> DeliverThroughTarget(
    const AnalyzedQuery& user, const AnalyzedQuery& rep,
    std::vector<Value> row, Timestamp ts) {
  ContentBasedNetwork net(DisseminationTree::FromEdges(1, {}).value());
  auto pub = net.Advertise(0, rep.output_schema()->stream_name());
  auto profile = ComposeUserProfile(user, rep);
  auto target = ComposeUserTarget(user, rep);
  EXPECT_TRUE(profile.ok() && target.ok());
  std::vector<std::pair<std::string, Tuple>> got;
  net.Subscribe(
      0, *profile,
      [&](const std::string& s, const Tuple& t) { got.emplace_back(s, t); },
      std::make_shared<const TupleTarget>(*target));
  net.Publish(pub, Tuple(rep.output_schema(), std::move(row), ts));
  return got;
}

TEST_F(PresentationTest, CallbackReordersAndRenames) {
  // User asks for (start_price, itemID); the representative delivers in
  // schema order (itemID, start_price, ...). The last hop must flip them
  // and rename the stream to the user's result name.
  AnalyzedQuery user = Q(
      "SELECT start_price, itemID FROM OpenAuction WHERE sellerID = 3",
      "result_user");
  AnalyzedQuery wide = Q(
      "SELECT itemID, sellerID, start_price FROM OpenAuction WHERE "
      "sellerID = 3",
      "other");
  auto rep = ComposeRepresentative({&wide, &user}, catalog_, "grp");
  ASSERT_TRUE(rep.ok());

  // A delivery from the representative stream: the rep's full output row.
  std::vector<Value> values;
  for (const auto& def : rep->output_schema()->attributes()) {
    if (def.name == "itemID") {
      values.emplace_back(int64_t{7});
    } else if (def.name == "start_price") {
      values.emplace_back(99.5);
    } else {
      values.emplace_back(int64_t{3});
    }
  }
  auto got = DeliverThroughTarget(user, *rep, std::move(values), 42);

  ASSERT_EQ(got.size(), 1u);
  const Tuple& tuple = got[0].second;
  EXPECT_EQ(got[0].first, "result_user");
  EXPECT_EQ(tuple.schema()->stream_name(), "result_user");
  ASSERT_EQ(tuple.num_values(), 2u);
  EXPECT_EQ(tuple.schema()->attribute(0).name, "start_price");
  EXPECT_DOUBLE_EQ(tuple.value(0).AsDouble(), 99.5);
  EXPECT_EQ(tuple.schema()->attribute(1).name, "itemID");
  EXPECT_EQ(tuple.value(1).AsInt64(), 7);
  EXPECT_EQ(tuple.timestamp(), 42);
}

TEST_F(PresentationTest, AggregateUserTakesRepColumnsPositionally) {
  // Group mates of an aggregate are equivalent: the user takes the
  // representative's row column by column under its own names.
  AnalyzedQuery user = Q(
      "SELECT sellerID, COUNT(*) AS n FROM OpenAuction [Range 1 Hour] "
      "GROUP BY sellerID",
      "result_user");
  AnalyzedQuery other = Q(
      "SELECT sellerID, COUNT(*) AS cnt FROM OpenAuction [Range 1 Hour] "
      "GROUP BY sellerID",
      "other");
  auto rep = ComposeRepresentative({&other, &user}, catalog_, "grp");
  ASSERT_TRUE(rep.ok());
  auto names = UserColumnRepNames(user, *rep);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 2u);
  EXPECT_EQ((*names)[1], rep->output_schema()->attribute(1).name);

  auto got = DeliverThroughTarget(user, *rep,
                                  {Value(int64_t{3}), Value(int64_t{5})}, 9);
  ASSERT_EQ(got.size(), 1u);
  const Tuple& tuple = got[0].second;
  EXPECT_EQ(got[0].first, "result_user");
  EXPECT_EQ(tuple.schema()->stream_name(), "result_user");
  ASSERT_EQ(tuple.num_values(), 2u);
  EXPECT_EQ(tuple.schema()->attribute(0).name, "sellerID");
  EXPECT_EQ(tuple.value(0).AsInt64(), 3);
  EXPECT_EQ(tuple.schema()->attribute(1).name, "n");
  EXPECT_EQ(tuple.value(1).AsInt64(), 5);
  EXPECT_EQ(tuple.timestamp(), 9);
}

TEST_F(PresentationTest, EndToEndUserSeesOwnSchema) {
  std::vector<Edge> edges = {{0, 1, 1.0}};
  CosmosSystem system(DisseminationTree::FromEdges(2, edges).value());
  (void)system.RegisterSource(AuctionDataset::OpenAuctionSchema(), 1.0, 0);
  ASSERT_TRUE(system.AddProcessor(0).ok());
  std::vector<Tuple> got;
  std::vector<std::string> streams;
  auto id = system.SubmitQuery(
      "SELECT start_price, itemID FROM OpenAuction", 1,
      [&](const std::string& s, const Tuple& t) {
        streams.push_back(s);
        got.push_back(t);
      });
  ASSERT_TRUE(id.ok());
  auto open = AuctionDataset::OpenAuctionSchema();
  (void)system.PublishSourceTuple(
      "OpenAuction",
      Tuple(open,
            {Value(int64_t{5}), Value(int64_t{2}), Value(10.0),
             Value(int64_t{0})},
            0));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(streams[0], "result_" + *id);
  EXPECT_EQ(got[0].schema()->attribute(0).name, "start_price");
  EXPECT_EQ(got[0].schema()->attribute(1).name, "itemID");
  EXPECT_DOUBLE_EQ(got[0].value(0).AsDouble(), 10.0);
  EXPECT_EQ(got[0].value(1).AsInt64(), 5);
}

TEST_F(PresentationTest, UserTakesOneColumnUnderTwoNames) {
  // P carries itemID once; both user columns take it.
  std::vector<Edge> edges = {{0, 1, 1.0}};
  CosmosSystem system(DisseminationTree::FromEdges(2, edges).value());
  (void)system.RegisterSource(AuctionDataset::OpenAuctionSchema(), 1.0, 0);
  ASSERT_TRUE(system.AddProcessor(0).ok());
  std::vector<Tuple> got;
  auto id = system.SubmitQuery(
      "SELECT itemID AS x, itemID AS y FROM OpenAuction", 1,
      [&](const std::string&, const Tuple& t) { got.push_back(t); });
  ASSERT_TRUE(id.ok());
  (void)system.PublishSourceTuple(
      "OpenAuction", Tuple(AuctionDataset::OpenAuctionSchema(),
                           {Value(int64_t{5}), Value(int64_t{2}),
                            Value(10.0), Value(int64_t{0})},
                           0));
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].num_values(), 2u);
  EXPECT_EQ(got[0].schema()->attribute(0).name, "x");
  EXPECT_EQ(got[0].value(0).AsInt64(), 5);
  EXPECT_EQ(got[0].schema()->attribute(1).name, "y");
  EXPECT_EQ(got[0].value(1).AsInt64(), 5);
}

TEST_F(PresentationTest, JoinUserKeepsQualifiedNames) {
  std::vector<Edge> edges = {{0, 1, 1.0}};
  CosmosSystem system(DisseminationTree::FromEdges(2, edges).value());
  (void)system.RegisterSource(AuctionDataset::OpenAuctionSchema(), 1.0, 0);
  (void)system.RegisterSource(AuctionDataset::ClosedAuctionSchema(), 1.0,
                              0);
  ASSERT_TRUE(system.AddProcessor(0).ok());
  std::vector<Tuple> got;
  auto id = system.SubmitQuery(
      "SELECT C.buyerID, O.itemID FROM OpenAuction [Range 1 Hour] O, "
      "ClosedAuction [Now] C WHERE O.itemID = C.itemID",
      1, [&](const std::string&, const Tuple& t) { got.push_back(t); });
  ASSERT_TRUE(id.ok());
  auto open = AuctionDataset::OpenAuctionSchema();
  auto closed = AuctionDataset::ClosedAuctionSchema();
  (void)system.PublishSourceTuple(
      "OpenAuction", Tuple(open,
                           {Value(int64_t{5}), Value(int64_t{2}),
                            Value(10.0), Value(int64_t{0})},
                           0));
  (void)system.PublishSourceTuple(
      "ClosedAuction",
      Tuple(closed, {Value(int64_t{5}), Value(int64_t{9}), Value(int64_t{0})},
            0));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].schema()->attribute(0).name, "C.buyerID");
  EXPECT_EQ(got[0].value(0).AsInt64(), 9);
  EXPECT_EQ(got[0].schema()->attribute(1).name, "O.itemID");
  EXPECT_EQ(got[0].value(1).AsInt64(), 5);
}

}  // namespace
}  // namespace cosmos
