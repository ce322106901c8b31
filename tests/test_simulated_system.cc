// The CBN under the discrete-event simulator: link delays, in-flight
// ordering, and end-to-end latency accounting.

#include <gtest/gtest.h>

#include "cbn/network.h"
#include "core/system.h"
#include "stream/auction_dataset.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> SensorSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40}});
}

Tuple MakeTuple(double temp, Timestamp ts = 0) {
  return Tuple(SensorSchema(), {Value(temp)}, ts);
}

TEST(SimulatedCbn, DeliveryTimeIsPathDelay) {
  // Chain with heterogeneous delays: 0 -(2ms)- 1 -(5ms)- 2 -(1ms)- 3.
  Simulator sim;
  auto tree = DisseminationTree::FromEdges(
                  4, {Edge{0, 1, 2.0}, Edge{1, 2, 5.0}, Edge{2, 3, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree), NetworkOptions{}, &sim);
  auto pub = net.Advertise(0, "s");
  std::vector<Timestamp> at;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) {
    at.push_back(sim.now());
  });
  net.Publish(pub, MakeTuple(1));
  sim.Run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 8 * kMillisecond);
}

TEST(SimulatedCbn, IntermediateSubscriberSeesItEarlier) {
  Simulator sim;
  auto tree = DisseminationTree::FromEdges(
                  3, {Edge{0, 1, 3.0}, Edge{1, 2, 4.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree), NetworkOptions{}, &sim);
  auto pub = net.Advertise(0, "s");
  std::map<NodeId, Timestamp> at;
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, [&](const std::string&, const Tuple&) {
    at[1] = sim.now();
  });
  net.Subscribe(2, p, [&](const std::string&, const Tuple&) {
    at[2] = sim.now();
  });
  net.Publish(pub, MakeTuple(1));
  sim.Run();
  EXPECT_EQ(at[1], 3 * kMillisecond);
  EXPECT_EQ(at[2], 7 * kMillisecond);
}

TEST(SimulatedCbn, PublishesInterleaveByDelay) {
  // Two publishers at different distances from the subscriber: arrival
  // order at the subscriber follows delay, not publish order.
  Simulator sim;
  auto tree = DisseminationTree::FromEdges(
                  3, {Edge{0, 2, 10.0}, Edge{1, 2, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree), NetworkOptions{}, &sim);
  auto pub = net.Advertise(0, "s");
  auto pub1 = net.Advertise(1, "s");
  std::vector<double> order;
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, [&](const std::string&, const Tuple& t) {
    order.push_back(t.value(0).AsDouble());
  });
  net.Publish(pub, MakeTuple(111));   // far: arrives at 10ms
  net.Publish(pub1, MakeTuple(222));  // near: arrives at 1ms
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_DOUBLE_EQ(order[0], 222.0);
  EXPECT_DOUBLE_EQ(order[1], 111.0);
}

TEST(SimulatedCbn, NothingMovesUntilTheClockRuns) {
  Simulator sim;
  auto tree =
      DisseminationTree::FromEdges(2, {Edge{0, 1, 1.0}}).value();
  ContentBasedNetwork net(std::move(tree), NetworkOptions{}, &sim);
  auto pub = net.Advertise(0, "s");
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, [&](const std::string&, const Tuple&) { ++hits; });
  net.Publish(pub, MakeTuple(1));
  EXPECT_EQ(hits, 0);
  EXPECT_TRUE(sim.HasPendingEvents());
  sim.Run();
  EXPECT_EQ(hits, 1);
}

TEST(SimulatedCbn, ByteAccountingIdenticalToSynchronousMode) {
  auto make_tree = [] {
    return DisseminationTree::FromEdges(
               4, {Edge{0, 1, 2.0}, Edge{1, 2, 3.0}, Edge{1, 3, 4.0}})
        .value();
  };
  Profile p;
  p.AddStream("s");

  ContentBasedNetwork sync_net(make_tree());
  auto sync_pub = sync_net.Advertise(0, "s");
  sync_net.Subscribe(2, p, nullptr);
  sync_net.Subscribe(3, p, nullptr);
  sync_net.Publish(sync_pub, MakeTuple(1));

  Simulator sim;
  ContentBasedNetwork sim_net(make_tree(), NetworkOptions{}, &sim);
  auto sim_pub = sim_net.Advertise(0, "s");
  sim_net.Subscribe(2, p, nullptr);
  sim_net.Subscribe(3, p, nullptr);
  sim_net.Publish(sim_pub, MakeTuple(1));
  sim.Run();

  EXPECT_EQ(sync_net.total_bytes(), sim_net.total_bytes());
  EXPECT_EQ(sync_net.total_deliveries(), sim_net.total_deliveries());
  EXPECT_EQ(sync_net.link_stats().size(), sim_net.link_stats().size());
}


// A representative replaced while its old version's results are still on
// the wire: the old publisher goes at once, and the datagrams in flight
// keep only their stream's id, so they drain without reaching anyone and
// then release it.
TEST(SimulatedCbn, VersionSwapDrainsOldResultsInFlight) {
  Simulator sim;
  CosmosSystem system(DisseminationTree::FromEdges(
                          4, {Edge{0, 1, 2.0}, Edge{1, 2, 5.0},
                              Edge{2, 3, 1.0}})
                          .value(),
                      SystemOptions{}, &sim);
  ASSERT_TRUE(
      system.RegisterSource(AuctionDataset::OpenAuctionSchema(), 1.0, 0)
          .ok());
  ASSERT_TRUE(system.AddProcessor(0).ok());
  int hits1 = 0;
  int hits2 = 0;
  ASSERT_TRUE(system
                  .SubmitQuery("SELECT itemID FROM OpenAuction WHERE "
                               "start_price > 100",
                               3,
                               [&](const std::string&, const Tuple&) {
                                 ++hits1;
                               })
                  .ok());
  const std::string old_version = "p0_grp_1_v1";
  ASSERT_NE(system.network().PublishersOf(old_version), nullptr);
  const size_t live = system.network().streams().live();
  auto open = [](int64_t item, double price, Timestamp ts) {
    return Tuple(AuctionDataset::OpenAuctionSchema(),
                 {Value(item), Value(int64_t{1}), Value(price),
                  Value(static_cast<int64_t>(ts))},
                 ts);
  };

  // The processor at node 0 emits the result at once; it needs 8 ms to
  // reach the user at node 3, and is on link 1-2 at 3 ms.
  ASSERT_TRUE(system.PublishSourceTuple("OpenAuction", open(1, 150, 0)).ok());
  sim.RunUntil(3 * kMillisecond);
  ASSERT_TRUE(sim.HasPendingEvents());

  // A widening member replaces the representative before it arrives.
  ASSERT_TRUE(system
                  .SubmitQuery("SELECT itemID FROM OpenAuction WHERE "
                               "start_price > 50",
                               3,
                               [&](const std::string&, const Tuple&) {
                                 ++hits2;
                               })
                  .ok());
  EXPECT_EQ(system.network().PublishersOf(old_version), nullptr);
  // The new version's stream took an id of its own: the old one is still
  // held by the datagram in flight.
  EXPECT_EQ(system.network().streams().live(), live + 1);

  sim.Run();
  EXPECT_EQ(hits2, 0) << "a result of the replaced version reached the "
                         "member that joined after it was emitted";
  EXPECT_LE(hits1, 1);
  EXPECT_EQ(system.network().streams().live(), live);

  // The new version delivers to both members.
  const int before = hits1;
  ASSERT_TRUE(system.PublishSourceTuple("OpenAuction", open(2, 150, 1)).ok());
  sim.Run();
  EXPECT_EQ(hits1, before + 1);
  EXPECT_EQ(hits2, 1);
}

}  // namespace
}  // namespace cosmos
