// Data-layer fault tolerance (paper Figure 2's data-layer fault-tolerance
// module): link failure, buffering, overlay repair, tree rebuild, and
// advertisement-scoped subscription state.

#include <gtest/gtest.h>

#include "cbn/network.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "query/parser.h"
#include "sim/simulator.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> SensorSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40}});
}

Tuple MakeTuple(double temp, Timestamp ts = 0) {
  return Tuple(SensorSchema(), {Value(temp)}, ts);
}

// Overlay square 0-1-2-3-0; tree is the chain 0-1-2-3.
Graph SquareOverlay() {
  Graph g(4);
  (void)g.AddEdge(0, 1, 1.0);
  (void)g.AddEdge(1, 2, 1.0);
  (void)g.AddEdge(2, 3, 1.0);
  (void)g.AddEdge(3, 0, 2.0);
  return g;
}

DisseminationTree ChainTree() {
  return DisseminationTree::FromEdges(
             4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
      .value();
}

TEST(FaultTolerance, FailUnknownLinkRejected) {
  ContentBasedNetwork net(ChainTree());
  EXPECT_EQ(net.FailLink(0, 2).code(), StatusCode::kNotFound);
  EXPECT_TRUE(net.FailLink(1, 2).ok());
  EXPECT_TRUE(net.HasFailedLinks());
}

TEST(FaultTolerance, LossWithoutBuffering) {
  NetworkOptions opts;
  opts.buffer_on_failure = false;
  ContentBasedNetwork net(ChainTree(), opts);
  auto pub = net.Advertise(0, "s");
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits; });
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(pub, MakeTuple(1));
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(net.lost_datagrams(), 1u);
}

TEST(FaultTolerance, BufferAndRecoverAfterRepair) {
  for (bool scoping : {false, true}) {
    SCOPED_TRACE(scoping ? "scoped" : "flooded");
    NetworkOptions opts;
    opts.advertisement_scoping = scoping;
    ContentBasedNetwork net(ChainTree(), opts);
    auto pub = net.Advertise(0, "s");
    std::vector<double> received;
    Profile p;
    p.AddStream("s");
    net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
      received.push_back(t.value(0).AsDouble());
    });
    net.Publish(pub, MakeTuple(1, 0));
    ASSERT_EQ(received.size(), 1u);

    ASSERT_TRUE(net.FailLink(1, 2).ok());
    net.Publish(pub, MakeTuple(2, 1));
    net.Publish(pub, MakeTuple(3, 2));
    EXPECT_EQ(received.size(), 1u);  // cut off
    EXPECT_EQ(net.buffered_datagrams(), 2u);
    EXPECT_EQ(net.lost_datagrams(), 0u);

    ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
    EXPECT_FALSE(net.HasFailedLinks());
    EXPECT_EQ(net.recovered_datagrams(), 2u);
    ASSERT_EQ(received.size(), 3u);
    EXPECT_DOUBLE_EQ(received[1], 2.0);
    EXPECT_DOUBLE_EQ(received[2], 3.0);

    // The repaired tree works for fresh traffic.
    net.Publish(pub, MakeTuple(4, 3));
    EXPECT_EQ(received.size(), 4u);
  }
}

TEST(FaultTolerance, RepairUsesCheapestCrossEdge) {
  ContentBasedNetwork net(ChainTree());
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  // The only overlay edge across the {0,1} / {2,3} cut is 3-0.
  EXPECT_TRUE(net.tree().HasEdge(3, 0));
  EXPECT_FALSE(net.tree().HasEdge(1, 2));
}

TEST(FaultTolerance, NoDuplicateDeliveryOnHealthySide) {
  // Subscriber at node 1 (near side) must see each datagram exactly once
  // even though datagrams toward node 3 were buffered and flushed.
  for (bool scoping : {false, true}) {
    SCOPED_TRACE(scoping ? "scoped" : "flooded");
    NetworkOptions opts;
    opts.advertisement_scoping = scoping;
    ContentBasedNetwork net(ChainTree(), opts);
    auto pub = net.Advertise(0, "s");
    int hits1 = 0, hits3 = 0;
    Profile p;
    p.AddStream("s");
    net.Subscribe(1, p, [&](const std::string&, const Tuple&) { ++hits1; });
    net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits3; });
    ASSERT_TRUE(net.FailLink(1, 2).ok());
    net.Publish(pub, MakeTuple(1));
    EXPECT_EQ(hits1, 1);
    EXPECT_EQ(hits3, 0);
    ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
    EXPECT_EQ(hits1, 1);  // no duplicate
    EXPECT_EQ(hits3, 1);  // recovered
  }
}

TEST(FaultTolerance, UnrepairablePartitionReported) {
  // Overlay identical to the tree: no alternate edge across the cut.
  Graph overlay(4);
  (void)overlay.AddEdge(0, 1, 1.0);
  (void)overlay.AddEdge(1, 2, 1.0);
  (void)overlay.AddEdge(2, 3, 1.0);
  ContentBasedNetwork net(ChainTree());
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  EXPECT_EQ(net.Repair(overlay).code(), StatusCode::kFailedPrecondition);
}

TEST(FaultTolerance, MultipleFailuresRepairedTogether) {
  for (bool scoping : {false, true}) {
    SCOPED_TRACE(scoping ? "scoped" : "flooded");
    NetworkOptions opts;
    opts.advertisement_scoping = scoping;
    TopologyOptions topo_opts;
    topo_opts.num_nodes = 30;
    topo_opts.ba_edges_per_node = 3;
    Topology topo = GenerateBarabasiAlbert(topo_opts);
    auto tree = DisseminationTree::FromEdges(
                    30, *MinimumSpanningTree(topo.graph))
                    .value();
    ContentBasedNetwork net(tree, opts);
    int hits = 0;
    Profile p;
    p.AddStream("s");
    net.Subscribe(17, p, [&](const std::string&, const Tuple&) { ++hits; });

    // Fail two tree links.
    const auto& edges = tree.edges();
    ASSERT_TRUE(net.FailLink(edges[0].u, edges[0].v).ok());
    ASSERT_TRUE(net.FailLink(edges[5].u, edges[5].v).ok());
    ASSERT_TRUE(net.Repair(topo.graph).ok());
    EXPECT_FALSE(net.HasFailedLinks());
    // Fresh traffic reaches the subscriber from anywhere.
    for (NodeId n = 0; n < 30; n += 7) {
      auto pub = net.Advertise(n, "s");
      net.Publish(pub, MakeTuple(1));
    }
    EXPECT_EQ(hits, 5);
  }
}

TEST(RebuildTree, PreservesSubscriptions) {
  for (bool scoping : {false, true}) {
    SCOPED_TRACE(scoping ? "scoped" : "flooded");
    NetworkOptions opts;
    opts.advertisement_scoping = scoping;
    ContentBasedNetwork net(ChainTree(), opts);
    auto pub1 = net.Advertise(1, "s");
    int hits = 0;
    Profile p;
    ConjunctiveClause c;
    c.ConstrainInterval("temp", Interval(0, false, 10, false));
    p.AddFilter(Filter("s", std::move(c)));
    net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits; });

    // Rebuild on a star topology instead of the chain.
    auto star = DisseminationTree::FromEdges(
                    4, {Edge{0, 1, 1.0}, Edge{0, 2, 1.0}, Edge{0, 3, 1.0}})
                    .value();
    ASSERT_TRUE(net.RebuildTree(star).ok());
    net.Publish(pub1, MakeTuple(5));   // match
    net.Publish(pub1, MakeTuple(20));  // no match
    EXPECT_EQ(hits, 1);
  }
}

TEST(RebuildTree, WrongSizeRejected) {
  ContentBasedNetwork net(ChainTree());
  auto small = DisseminationTree::FromEdges(2, {Edge{0, 1, 1.0}}).value();
  EXPECT_EQ(net.RebuildTree(small).code(), StatusCode::kInvalidArgument);
}

TEST(Advertisements, ScopingShrinksRoutingState) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 50;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  50, *MinimumSpanningTree(topo.graph))
                  .value();

  NetworkOptions scoped;
  scoped.advertisement_scoping = true;
  ContentBasedNetwork with(tree, scoped);
  NetworkOptions flooded;
  flooded.advertisement_scoping = false;
  ContentBasedNetwork without(tree, flooded);

  auto with_pub = with.Advertise(0, "s");
  Profile p;
  p.AddStream("s");
  with.Subscribe(40, p, nullptr);
  without.Subscribe(40, p, nullptr);
  EXPECT_LT(with.TotalTableEntries(), without.TotalTableEntries());
  // Delivery still works.
  int hits = 0;
  ProfileId id = with.Subscribe(45, p, [&](const std::string&, const Tuple&) {
    ++hits;
  });
  (void)id;
  with.Publish(with_pub, MakeTuple(5));
  EXPECT_EQ(hits, 1);
}

TEST(Advertisements, LateAdvertiserGetsRoutes) {
  NetworkOptions scoped;
  scoped.advertisement_scoping = true;
  ContentBasedNetwork net(ChainTree(), scoped);
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits; });
  // Subscription predates the advertisement.
  auto pub = net.Advertise(0, "s");
  net.Publish(pub, MakeTuple(1));
  EXPECT_EQ(hits, 1);
  // A second advertiser on the path already installed adds no entry: its
  // walk passes through the ones there.
  EXPECT_EQ(net.TotalTableEntries(), 3u);
  const uint64_t messages = net.control_messages();
  auto pub1 = net.Advertise(1, "s");
  EXPECT_EQ(net.TotalTableEntries(), 3u);
  EXPECT_EQ(net.control_messages(), messages);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_TRUE(net.router(n).table().CheckInvariants()) << "node " << n;
  }
  net.Publish(pub1, MakeTuple(2));
  EXPECT_EQ(hits, 2);
}

TEST(Advertisements, ScopedDeliveryMatchesUnscopedDelivery) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 20;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  20, *MinimumSpanningTree(topo.graph))
                  .value();
  Rng rng(31);
  std::vector<int> hits_per_mode;
  for (bool scoping : {false, true}) {
    NetworkOptions opts;
    opts.advertisement_scoping = scoping;
    ContentBasedNetwork net(tree, opts);
    auto pub2 = net.Advertise(2, "s");
    auto pub11 = net.Advertise(11, "s");
    int hits = 0;
    Rng sub_rng(5);
    for (int i = 0; i < 8; ++i) {
      Profile p;
      ConjunctiveClause c;
      double lo = sub_rng.NextInt(-10, 30);
      c.ConstrainInterval("temp", Interval(lo, false, lo + 10, false));
      p.AddFilter(Filter("s", std::move(c)));
      net.Subscribe(static_cast<NodeId>(sub_rng.NextBounded(20)), p,
                    [&](const std::string&, const Tuple&) { ++hits; });
    }
    Rng pub_rng(9);
    for (int i = 0; i < 60; ++i) {
      auto& publisher = pub_rng.NextBool() ? pub2 : pub11;
      net.Publish(publisher, MakeTuple(pub_rng.NextInt(-10, 40)));
    }
    hits_per_mode.push_back(hits);
  }
  EXPECT_GT(hits_per_mode[0], 0);
  EXPECT_EQ(hits_per_mode[0], hits_per_mode[1]);
}

// A scoped flush must not restart where the datagram stopped. Chain
// 0-1-2-3 with the publisher at 0: failing 1-2 buffers the datagram toward
// entry node 2, and Repair splices in 3-0, so the repaired tree's only
// publisher->subscriber paths are 0-1 and 0-3. Node 2 holds no routing
// state, and a flush restarted there would strand the datagram.
TEST(Advertisements, ScopedFlushRestartsAtAPublisher) {
  for (bool simulated : {false, true}) {
    SCOPED_TRACE(simulated ? "simulator" : "synchronous");
    Simulator simulator;
    Simulator* sim = simulated ? &simulator : nullptr;
    NetworkOptions scoped;
    scoped.advertisement_scoping = true;
    ContentBasedNetwork net(ChainTree(), scoped, sim);
    auto run = [sim] {
      if (sim != nullptr) sim->Run();
    };
    auto pub = net.Advertise(0, "s");
    int near_hits = 0;
    int far_hits = 0;
    Profile p;
    p.AddStream("s");
    net.Subscribe(1, p,
                  [&](const std::string&, const Tuple&) { ++near_hits; });
    net.Subscribe(3, p,
                  [&](const std::string&, const Tuple&) { ++far_hits; });

    ASSERT_TRUE(net.FailLink(1, 2).ok());
    net.Publish(pub, MakeTuple(1));
    run();
    EXPECT_EQ(near_hits, 1);
    EXPECT_EQ(far_hits, 0);
    ASSERT_EQ(net.buffered_datagrams(), 1u);

    ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
    run();
    ASSERT_TRUE(net.tree().HasEdge(3, 0));
    EXPECT_EQ(net.router(2).table().TotalEntries(), 0u)
        << "entry node 2 lies on a publisher->subscriber path";
    EXPECT_EQ(far_hits, 1) << "the cut-off subscriber missed the flush";
    EXPECT_EQ(near_hits, 1) << "the flush reached the healthy side";
    EXPECT_EQ(net.recovered_datagrams(), 1u);
    EXPECT_EQ(net.lost_datagrams(), 0u);
    EXPECT_EQ(net.buffered_datagrams(), 0u);
  }
}

// A buffered datagram whose stream lost its last publisher before the
// flush: the flush restarts at a publisher, and nothing routes a stream
// nobody advertises, so the datagram is counted lost.
TEST(Advertisements, FlushWithoutPublisherCountsLost) {
  ContentBasedNetwork net(ChainTree());
  auto pub = net.Advertise(0, "s");
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple&) { ++hits; });
  ASSERT_TRUE(net.FailLink(1, 2).ok());
  net.Publish(pub, MakeTuple(1));
  ASSERT_EQ(net.buffered_datagrams(), 1u);
  pub = ContentBasedNetwork::Publisher();
  ASSERT_EQ(net.PublishersOf("s"), nullptr);

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  EXPECT_EQ(net.buffered_datagrams(), 0u);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(net.recovered_datagrams(), 0u);
  EXPECT_EQ(net.lost_datagrams(), 1u);
  EXPECT_EQ(net.metrics().FindCounter("cbn.matches")->value(), 2u)
      << "a datagram lost for want of a publisher matched no bucket";
}

TEST(Advertisements, PublishersOfTracksAdvertisers) {
  ContentBasedNetwork net(ChainTree());
  EXPECT_EQ(net.PublishersOf("s"), nullptr);
  auto at1 = net.Advertise(1, "s");
  {
    auto at2 = net.Advertise(2, "s");
    const auto* pubs = net.PublishersOf("s");
    ASSERT_NE(pubs, nullptr);
    EXPECT_EQ(*pubs, (std::set<NodeId>{1, 2}));
  }
  // An advertisement lasts as long as its publisher, and a moved-from
  // publisher holds none.
  EXPECT_EQ(*net.PublishersOf("s"), std::set<NodeId>{1});
  ContentBasedNetwork::Publisher moved = std::move(at1);
  EXPECT_EQ(moved.stream(), "s");
  EXPECT_EQ(*net.PublishersOf("s"), std::set<NodeId>{1});
  moved = ContentBasedNetwork::Publisher();
  EXPECT_EQ(net.PublishersOf("s"), nullptr);
  EXPECT_EQ(net.streams().live(), 0u);
}

}  // namespace
}  // namespace cosmos
