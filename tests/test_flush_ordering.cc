#include <gtest/gtest.h>

#include <vector>

#include "cbn/network.h"
#include "sim/simulator.h"

namespace cosmos {
namespace {

// Regression tests for the order in which Network::FlushBuffered replays
// datagrams buffered during a link failure: subscribers must observe the
// publish order (FIFO), in both the synchronous network and under the
// discrete-event simulator. A reordering flush would break downstream SPE
// windows, which assume per-stream non-decreasing event time.

std::shared_ptr<const Schema> SeqSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"seq", ValueType::kInt64},
                                     {"timestamp", ValueType::kInt64}});
}

Tuple SeqTuple(int64_t seq, Timestamp ts) {
  return Tuple(SeqSchema(), {Value(seq), Value(static_cast<int64_t>(ts))}, ts);
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

TEST(FlushOrdering, RepairReplaysBufferedInPublishOrder) {
  ContentBasedNetwork net(ChainTree());
  auto pub = net.Advertise(0, "s");
  std::vector<int64_t> seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    seen.push_back(t.value(0).AsInt64());
  });

  ASSERT_TRUE(net.FailLink(2, 3).ok());
  for (int64_t i = 0; i < 10; ++i) {
    net.Publish(pub, SeqTuple(i, static_cast<Timestamp>(i) * 1000));
  }
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(net.buffered_datagrams(), 10u);

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  ASSERT_EQ(seen.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], i) << "flush out of order";
  }
  EXPECT_EQ(net.buffered_datagrams(), 0u);
  EXPECT_EQ(net.recovered_datagrams(), 10u);
  EXPECT_EQ(net.lost_datagrams(), 0u);
}

TEST(FlushOrdering, RepairReplaysBufferedInPublishOrderUnderSimulator) {
  Simulator sim;
  ContentBasedNetwork net(ChainTree(), NetworkOptions{}, &sim);
  auto pub = net.Advertise(0, "s");
  std::vector<int64_t> seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    seen.push_back(t.value(0).AsInt64());
  });

  ASSERT_TRUE(net.FailLink(2, 3).ok());
  for (int64_t i = 0; i < 10; ++i) {
    net.Publish(pub, SeqTuple(i, static_cast<Timestamp>(i) * 1000));
  }
  sim.Run();  // everything up to the cut is delivered/buffered
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(net.buffered_datagrams(), 10u);

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  sim.Run();
  ASSERT_EQ(seen.size(), 10u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], i) << "flush out of order";
  }
  EXPECT_EQ(net.buffered_datagrams(), 0u);
}

// Under a Simulator a later datagram can be held at a failed link near its
// publisher before an earlier one, still in flight, is held at a failed
// link farther out. The flush must still replay them in publish order.
TEST(FlushOrdering, FlushReplaysInPublishOrderAcrossBufferingHops) {
  Simulator sim;
  ContentBasedNetwork net(ChainTree(), NetworkOptions{}, &sim);
  auto pub = net.Advertise(0, "s");
  std::vector<int64_t> seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    seen.push_back(t.value(0).AsInt64());
  });

  ASSERT_TRUE(net.FailLink(2, 3).ok());
  // Tuple 0 leaves node 0 at once and is held at node 2 at 2 ms; link 0-1
  // fails behind it, and tuple 1, published at 0.6 ms, is held at node 0.
  net.Publish(pub, SeqTuple(0, 0));
  sim.Schedule(kMillisecond / 2,
               [&] { ASSERT_TRUE(net.FailLink(0, 1).ok()); });
  sim.Schedule(kMillisecond * 6 / 10,
               [&] { net.Publish(pub, SeqTuple(1, 1000)); });
  sim.Run();
  EXPECT_TRUE(seen.empty());
  ASSERT_EQ(net.buffered_datagrams(), 2u);

  // The overlay adds 3-0 and 0-2 to the chain, so the repair can reconnect
  // both cuts.
  Graph overlay = SquareOverlay();
  (void)overlay.AddEdge(0, 2, 3.0);
  ASSERT_TRUE(net.Repair(overlay).ok());
  sim.Run();
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1})) << "flush out of order";
  EXPECT_EQ(net.recovered_datagrams(), 2u);
  EXPECT_EQ(net.lost_datagrams(), 0u);
}

TEST(FlushOrdering, PostRepairTrafficFollowsFlushedTraffic) {
  // Tuples published after the repair must not overtake the flushed
  // backlog at the subscriber.
  ContentBasedNetwork net(ChainTree());
  auto pub = net.Advertise(0, "s");
  std::vector<int64_t> seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    seen.push_back(t.value(0).AsInt64());
  });

  net.Publish(pub, SeqTuple(0, 0));
  ASSERT_TRUE(net.FailLink(2, 3).ok());
  net.Publish(pub, SeqTuple(1, 1000));
  net.Publish(pub, SeqTuple(2, 2000));
  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  net.Publish(pub, SeqTuple(3, 3000));

  ASSERT_EQ(seen.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], i);
  }
}

TEST(FlushOrdering, FlushOnlyReachesTheCutOffSide) {
  // Two subscribers, one on each side of the failed link. The near-side
  // subscriber was served at publish time; the flush must deliver only to
  // the far side, or the near side would see duplicates.
  ContentBasedNetwork net(ChainTree());
  auto pub = net.Advertise(0, "s");
  std::vector<int64_t> near_seen;
  std::vector<int64_t> far_seen;
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, [&](const std::string&, const Tuple& t) {
    near_seen.push_back(t.value(0).AsInt64());
  });
  net.Subscribe(3, p, [&](const std::string&, const Tuple& t) {
    far_seen.push_back(t.value(0).AsInt64());
  });

  ASSERT_TRUE(net.FailLink(2, 3).ok());
  for (int64_t i = 0; i < 5; ++i) {
    net.Publish(pub, SeqTuple(i, static_cast<Timestamp>(i) * 1000));
  }
  EXPECT_EQ(near_seen.size(), 5u);  // near side unaffected by the cut
  EXPECT_TRUE(far_seen.empty());

  ASSERT_TRUE(net.Repair(SquareOverlay()).ok());
  EXPECT_EQ(near_seen.size(), 5u) << "near side saw duplicates after flush";
  ASSERT_EQ(far_seen.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(far_seen[static_cast<size_t>(i)], i);
  }
}

}  // namespace
}  // namespace cosmos
