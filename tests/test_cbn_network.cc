#include "cbn/network.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "overlay/graph.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"
#include "query/parser.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> SensorSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40},
                                     {"hum", ValueType::kDouble, 0, 100},
                                     {"timestamp", ValueType::kInt64}});
}

Tuple MakeTuple(double temp, double hum, Timestamp ts = 0) {
  return Tuple(SensorSchema(),
               {Value(temp), Value(hum), Value(static_cast<int64_t>(ts))}, ts);
}

// The classic CBN regime: every subscription floods the whole tree,
// pruned by covering.
NetworkOptions Flooded() {
  NetworkOptions options;
  options.advertisement_scoping = false;
  options.covering_prune = true;
  return options;
}

// One publisher of "s" at every node of `net`.
std::vector<ContentBasedNetwork::Publisher> PublishersEverywhere(
    ContentBasedNetwork& net) {
  std::vector<ContentBasedNetwork::Publisher> pubs;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    pubs.push_back(net.Advertise(n, "s"));
  }
  return pubs;
}

ConjunctiveClause Clause(const std::string& text) {
  auto c = ClauseFromExpr(*ParseExpression(text));
  EXPECT_TRUE(c.ok());
  return *c;
}

// 0 - 1 - 2
//     |
//     3
DisseminationTree StarTree() {
  return DisseminationTree::FromEdges(
             4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{1, 3, 1.0}})
      .value();
}

TEST(Network, DeliversToMatchingSubscriberOnly) {
  ContentBasedNetwork net(StarTree());
  auto pub = net.Advertise(0, "s");
  int hits2 = 0;
  int hits3 = 0;
  Profile p2;
  p2.AddFilter(Filter("s", Clause("temp > 20")));
  net.Subscribe(2, p2, [&](const std::string&, const Tuple&) { ++hits2; });
  Profile p3;
  p3.AddFilter(Filter("s", Clause("temp <= 20")));
  net.Subscribe(3, p3, [&](const std::string&, const Tuple&) { ++hits3; });

  net.Publish(pub, MakeTuple(25, 50));
  net.Publish(pub, MakeTuple(10, 50));
  EXPECT_EQ(hits2, 1);
  EXPECT_EQ(hits3, 1);
}

TEST(Network, NoSubscribersMeansNoTraffic) {
  ContentBasedNetwork net(StarTree());
  auto pub = net.Advertise(0, "s");
  size_t delivered = net.Publish(pub, MakeTuple(25, 50));
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(Network, LocalSubscriberGetsDataWithoutLinkTraffic) {
  ContentBasedNetwork net(StarTree());
  auto pub = net.Advertise(0, "s");
  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(0, p, [&](const std::string&, const Tuple&) { ++hits; });
  net.Publish(pub, MakeTuple(1, 1));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(Network, SharedPathTransfersOnce) {
  // Two subscribers behind the same branch: link 0-1 carries one copy.
  ContentBasedNetwork net(StarTree());
  auto pub = net.Advertise(0, "s");
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, nullptr);
  net.Subscribe(3, p, nullptr);
  net.Publish(pub, MakeTuple(1, 1));
  const auto& stats = net.link_stats();
  EXPECT_EQ(stats.at({0, 1}).datagrams, 1u);
  EXPECT_EQ(stats.at({1, 2}).datagrams, 1u);
  EXPECT_EQ(stats.at({1, 3}).datagrams, 1u);
  EXPECT_EQ(net.total_deliveries(), 2u);
}

TEST(Network, ForwardingStopsWhereNoInterest) {
  ContentBasedNetwork net(StarTree());
  auto pub = net.Advertise(0, "s");
  Profile p;
  p.AddFilter(Filter("s", Clause("temp > 20")));
  net.Subscribe(2, p, nullptr);
  net.Publish(pub, MakeTuple(10, 10));  // matches nobody
  EXPECT_EQ(net.total_bytes(), 0u);
  net.Publish(pub, MakeTuple(30, 10));
  // Reaches 2 via 0-1, 1-2; never touches 1-3.
  EXPECT_EQ(net.link_stats().count({1, 3}), 0u);
}

TEST(Network, EarlyProjectionShrinksDatagrams) {
  NetworkOptions with;
  with.early_projection = true;
  NetworkOptions without;
  without.early_projection = false;

  for (bool early : {false, true}) {
    ContentBasedNetwork net(StarTree(), early ? with : without);
    auto pub = net.Advertise(0, "s");
    Profile p;
    p.AddStream("s", {"temp"});
    std::vector<size_t> sizes;
    net.Subscribe(2, p, [&](const std::string&, const Tuple& t) {
      sizes.push_back(t.num_values());
    });
    net.Publish(pub, MakeTuple(1, 1));
    ASSERT_EQ(sizes.size(), 1u);
    // Last-hop projection always applies: subscriber sees only temp.
    EXPECT_EQ(sizes[0], 1u);
    uint64_t bytes = net.link_stats().at({0, 1}).bytes;
    if (early) {
      EXPECT_LT(bytes, 30u);  // projected on the wire
    } else {
      EXPECT_GT(bytes, 30u);  // full tuple on the wire
    }
  }
}

TEST(Network, ProjectionKeepsFilterAttributesForDownstreamReevaluation) {
  // Subscriber wants only "hum" but filters on temp: the wire format must
  // retain temp so intermediate hops can re-evaluate, while the subscriber
  // still receives only hum.
  ContentBasedNetwork net(StarTree());
  auto pub = net.Advertise(0, "s");
  Profile p;
  p.AddStream("s", {"hum"});
  p.AddFilter(Filter("s", Clause("temp > 20")));
  std::vector<Tuple> received;
  net.Subscribe(2, p, [&](const std::string&, const Tuple& t) {
    received.push_back(t);
  });
  net.Publish(pub, MakeTuple(30, 77));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].num_values(), 1u);
  EXPECT_DOUBLE_EQ(received[0].value(0).AsDouble(), 77.0);
}

TEST(Network, UnsubscribeStopsDelivery) {
  ContentBasedNetwork net(StarTree());
  auto pub = net.Advertise(0, "s");
  int hits = 0;
  Profile p;
  p.AddStream("s");
  ProfileId id =
      net.Subscribe(2, p, [&](const std::string&, const Tuple&) { ++hits; });
  net.Publish(pub, MakeTuple(1, 1));
  EXPECT_EQ(hits, 1);
  EXPECT_TRUE(net.Unsubscribe(id));
  EXPECT_FALSE(net.Unsubscribe(id));
  net.Publish(pub, MakeTuple(2, 2));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(net.router(0).table().TotalEntries(), 0u);
}

TEST(Network, CoveringPruneSavesControlMessages) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 60;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  60, *MinimumSpanningTree(topo.graph))
                  .value();
  Profile wide;
  wide.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 30")));
  Profile narrow;
  narrow.AddFilter(Filter("s", Clause("temp >= 10 AND temp <= 20")));

  NetworkOptions pruned = Flooded();
  pruned.covering_prune = true;
  ContentBasedNetwork a(tree, pruned);
  a.Subscribe(5, wide, nullptr);
  uint64_t before = a.control_messages();
  a.Subscribe(5, narrow, nullptr);
  uint64_t pruned_cost = a.control_messages() - before;

  NetworkOptions flood = Flooded();
  flood.covering_prune = false;
  ContentBasedNetwork b(tree, flood);
  b.Subscribe(5, wide, nullptr);
  before = b.control_messages();
  b.Subscribe(5, narrow, nullptr);
  uint64_t flood_cost = b.control_messages() - before;

  EXPECT_LT(pruned_cost, flood_cost);
}

TEST(Network, CoveringPruneDoesNotLoseDeliveries) {
  // Same subscriptions with and without pruning must deliver identically.
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 30;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree = DisseminationTree::FromEdges(
                  30, *MinimumSpanningTree(topo.graph))
                  .value();
  std::vector<int> hits_per_mode;
  for (bool prune : {false, true}) {
    NetworkOptions opts = Flooded();
    opts.covering_prune = prune;
    ContentBasedNetwork net(tree, opts);
    auto pubs = PublishersEverywhere(net);
    int hits = 0;
    Rng sub_rng(77);
    for (int i = 0; i < 10; ++i) {
      Profile p;
      double lo = sub_rng.NextInt(-10, 30);
      ConjunctiveClause c;
      c.ConstrainInterval("temp", Interval(lo, false, lo + 10, false));
      p.AddFilter(Filter("s", std::move(c)));
      net.Subscribe(static_cast<NodeId>(sub_rng.NextBounded(30)), p,
                    [&](const std::string&, const Tuple&) { ++hits; });
    }
    Rng pub_rng(99);
    for (int i = 0; i < 50; ++i) {
      net.Publish(pubs[pub_rng.NextBounded(30)],
                  MakeTuple(pub_rng.NextInt(-10, 40), pub_rng.NextInt(0, 100)));
    }
    hits_per_mode.push_back(hits);
  }
  ASSERT_EQ(hits_per_mode.size(), 2u);
  EXPECT_GT(hits_per_mode[0], 0);
  EXPECT_EQ(hits_per_mode[0], hits_per_mode[1]);
}

TEST(Network, UnsubscribingCoveringProfileDoesNotSilenceCoveredOnes) {
  // Regression: subscription B's propagation was pruned under covering
  // subscription A; when A unsubscribes, B must be re-propagated or nodes
  // beyond the prune point stop routing toward B ("deaf subscriber").
  // Chain: publisher at 0, both subscribers at 3 — pruning happens at
  // nodes 2 and 1 while flooding outward from node 3.
  auto tree = DisseminationTree::FromEdges(
                  4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree), Flooded());
  auto pub = net.Advertise(0, "s");
  int hits_b = 0;
  Profile wide;
  wide.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 40")));
  Profile narrow;
  narrow.AddFilter(Filter("s", Clause("temp >= 10 AND temp <= 20")));
  ProfileId a = net.Subscribe(3, wide, nullptr);
  net.Subscribe(3, narrow,
                [&](const std::string&, const Tuple&) { ++hits_b; });
  net.Publish(pub, MakeTuple(15, 0));
  EXPECT_EQ(hits_b, 1);
  EXPECT_TRUE(net.Unsubscribe(a));
  net.Publish(pub, MakeTuple(15, 0));
  EXPECT_EQ(hits_b, 2) << "covered subscription went deaf after the "
                          "covering one unsubscribed";
}

// Two equal profiles pruned behind a wider one must not count as each
// other's coverer once the wider one leaves: a coverer has to be an
// unpruned entry, or neither equal profile is re-forwarded and both go
// deaf beyond the first hop.
TEST(Network, EqualProfilesNotStrandedBehindRemovedCoverer) {
  // Chain 0-1-2-3; subscribers at 0, publisher at 3.
  auto tree = DisseminationTree::FromEdges(
                  4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree), Flooded());
  auto pub3 = net.Advertise(3, "s");
  Profile whole;
  whole.AddStream("s");
  const ProfileId w = net.Subscribe(0, whole, nullptr);
  int hits = 0;
  Profile warm;
  warm.AddFilter(Filter("s", Clause("temp > 20")));
  net.Subscribe(0, warm, [&](const std::string&, const Tuple&) { ++hits; });
  net.Subscribe(0, warm, [&](const std::string&, const Tuple&) { ++hits; });
  ASSERT_TRUE(net.Unsubscribe(w));
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_TRUE(net.router(n).table().CheckInvariants()) << "node " << n;
  }
  // One equal profile is re-forwarded to every hop; the other stays
  // pruned behind it at node 1.
  EXPECT_EQ(net.TotalTableEntries(), 4u);
  net.Publish(pub3, MakeTuple(25, 0));
  EXPECT_EQ(hits, 2) << "equal profiles stranded behind the removed coverer";
  net.Publish(pub3, MakeTuple(15, 0));
  EXPECT_EQ(hits, 2);
}

// Scoped and pruned by covering, as SIENA forwards a subscription toward
// advertisers only until an equal or wider one has gone: the narrow
// subscription stops at the first hop, and the unsubscribe of the wide one
// re-forwards it along the publisher's path, and only there.
TEST(Network, ScopedCoveringPrunesAndReforwardsOnUnsubscribe) {
  NetworkOptions options;
  options.covering_prune = true;
  ContentBasedNetwork net(StarTree(), options);
  auto pub = net.Advertise(2, "s");
  Profile wide;
  wide.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 40")));
  Profile narrow;
  narrow.AddFilter(Filter("s", Clause("temp >= 10 AND temp <= 20")));
  int hits = 0;
  const ProfileId w = net.Subscribe(0, wide, nullptr);
  net.Subscribe(0, narrow, [&](const std::string&, const Tuple&) { ++hits; });
  // wide at 1 and 2; narrow at 1 only, pruned behind wide.
  EXPECT_EQ(net.TotalTableEntries(), 3u);
  EXPECT_GT(net.covering_checks(), 0u);
  EXPECT_EQ(net.router(3).table().TotalEntries(), 0u);

  const uint64_t before = net.control_messages();
  ASSERT_TRUE(net.Unsubscribe(w));
  EXPECT_EQ(net.control_messages() - before, 1u);  // narrow's entry at 2
  EXPECT_EQ(net.TotalTableEntries(), 2u);
  EXPECT_EQ(net.router(3).table().TotalEntries(), 0u);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_TRUE(net.router(n).table().CheckInvariants()) << "node " << n;
  }
  net.Publish(pub, MakeTuple(15, 0));
  EXPECT_EQ(hits, 1) << "narrow subscription deaf after its coverer left";
}

// Chain 0-1-2-3 with the publisher at 3 and, at 0, a wide subscription and
// a narrow one pruned behind it at node 1 — in either regime.
struct PrunedPair {
  explicit PrunedPair(bool scoping)
      : net(DisseminationTree::FromEdges(
                4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
                .value(),
            Options(scoping)),
        pub(net.Advertise(3, "s")) {
    wide.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 40")));
    narrow.AddFilter(Filter("s", Clause("temp >= 10 AND temp <= 20")));
    w = net.Subscribe(
        0, wide, [this](const std::string&, const Tuple&) { ++wide_hits; });
    n = net.Subscribe(
        0, narrow,
        [this](const std::string&, const Tuple&) { ++narrow_hits; });
  }

  static NetworkOptions Options(bool scoping) {
    NetworkOptions options;
    options.advertisement_scoping = scoping;
    options.covering_prune = true;
    return options;
  }

  bool Consistent() const {
    for (NodeId node = 0; node < net.num_nodes(); ++node) {
      if (!net.router(node).table().CheckInvariants()) return false;
    }
    return true;
  }

  ContentBasedNetwork net;
  ContentBasedNetwork::Publisher pub;
  Profile wide;
  Profile narrow;
  ProfileId w = 0;
  ProfileId n = 0;
  int wide_hits = 0;
  int narrow_hits = 0;
};

// Narrowing a coverer re-checks what it covered: the narrow subscription,
// no longer covered at node 1, is re-forwarded past it.
TEST(Network, UpdateNarrowingACovererReforwardsWhatItCovered) {
  for (bool scoping : {false, true}) {
    SCOPED_TRACE(scoping ? "scoped" : "flooded");
    PrunedPair pair(scoping);
    ASSERT_EQ(pair.net.router(1).table().CoveredBy(0, pair.n), pair.w);
    Profile warm;
    warm.AddFilter(Filter("s", Clause("temp >= 30 AND temp <= 40")));
    ASSERT_TRUE(pair.net.Update(pair.w, warm));
    EXPECT_EQ(pair.net.router(1).table().CoveredBy(0, pair.n), 0u);
    EXPECT_TRUE(pair.Consistent());
    pair.net.Publish(pair.pub, MakeTuple(15, 0));
    EXPECT_EQ(pair.narrow_hits, 1) << "covered subscription went deaf";
    EXPECT_EQ(pair.wide_hits, 0) << "the update did not narrow its local";
    pair.net.Publish(pair.pub, MakeTuple(35, 0));
    EXPECT_EQ(pair.wide_hits, 1);
  }
}

// Widening a pruned subscription past its coverer resumes its walk from
// the hop it was pruned at.
TEST(Network, UpdateWideningAPrunedEntryResumesItsWalk) {
  for (bool scoping : {false, true}) {
    SCOPED_TRACE(scoping ? "scoped" : "flooded");
    PrunedPair pair(scoping);
    Profile wider;
    wider.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 50")));
    const uint64_t before = pair.net.control_messages();
    ASSERT_TRUE(pair.net.Update(pair.n, wider));
    // Its one entry rewritten, then two more past node 1 toward node 3.
    EXPECT_EQ(pair.net.control_messages() - before, 3u);
    EXPECT_EQ(pair.net.router(1).table().CoveredBy(0, pair.n), 0u);
    EXPECT_TRUE(pair.Consistent());
    pair.net.Publish(pair.pub, MakeTuple(45, 0));
    EXPECT_EQ(pair.narrow_hits, 1) << "widened subscription stayed pruned";
    EXPECT_EQ(pair.wide_hits, 0);
  }
}

// Under scoping without covering an update rewrites each of the
// subscription's entries in place: the table keeps its size, one control
// message goes per entry, and deliveries follow the new profile.
TEST(Network, ScopedUpdateLeavesTableEntriesUnchanged) {
  ContentBasedNetwork net(StarTree());
  auto pub = net.Advertise(2, "s");
  Profile other;
  other.AddStream("s", {"hum"});
  net.Subscribe(3, other, nullptr);
  Profile cold;
  cold.AddFilter(Filter("s", Clause("temp < 10")));
  int hits = 0;
  const ProfileId id =
      net.Subscribe(0, cold, [&](const std::string&, const Tuple&) { ++hits; });
  const size_t entries = net.TotalTableEntries();
  ASSERT_EQ(entries, 4u);
  const uint64_t before = net.control_messages();
  Profile warm;
  warm.AddStream("s", {"temp"});
  warm.AddFilter(Filter("s", Clause("temp > 20")));
  ASSERT_TRUE(net.Update(id, warm));
  EXPECT_EQ(net.TotalTableEntries(), entries);
  EXPECT_EQ(net.control_messages() - before, 2u);  // its entries at 1 and 2
  EXPECT_FALSE(net.Update(id + 100, warm));
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_TRUE(net.router(n).table().CheckInvariants()) << "node " << n;
  }
  net.Publish(pub, MakeTuple(5, 0));
  EXPECT_EQ(hits, 0);
  net.Publish(pub, MakeTuple(25, 0));
  EXPECT_EQ(hits, 1);
}

TEST(Network, RepeatedRefreshChurnKeepsDelivery) {
  // The processor's source-profile refresh pattern: subscribe the new
  // merged profile, then unsubscribe the old identical one — repeatedly.
  auto tree = DisseminationTree::FromEdges(
                  3, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  auto pub = net.Advertise(0, "s");
  int hits = 0;
  Profile p;
  p.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 40")));
  ProfileId current =
      net.Subscribe(2, p, [&](const std::string&, const Tuple&) { ++hits; });
  for (int round = 0; round < 5; ++round) {
    ProfileId next = net.Subscribe(
        2, p, [&](const std::string&, const Tuple&) { ++hits; });
    net.Unsubscribe(current);
    current = next;
    net.Publish(pub, MakeTuple(10, round));
    EXPECT_EQ(hits, round + 1) << "round " << round;
  }
}

TEST(Network, SimulatedModeDeliversWithDelay) {
  Simulator sim;
  ContentBasedNetwork net(StarTree(), NetworkOptions{}, &sim);
  auto pub = net.Advertise(0, "s");
  std::vector<Timestamp> delivery_times;
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, [&](const std::string&, const Tuple&) {
    delivery_times.push_back(sim.now());
  });
  net.Publish(pub, MakeTuple(1, 1));
  EXPECT_TRUE(delivery_times.empty());  // nothing until the sim runs
  sim.Run();
  ASSERT_EQ(delivery_times.size(), 1u);
  // Two hops of weight 1.0ms each.
  EXPECT_EQ(delivery_times[0], 2 * kMillisecond);
}

TEST(Network, ResetStatsClearsCounters) {
  ContentBasedNetwork net(StarTree());
  auto pub = net.Advertise(0, "s");
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, nullptr);
  net.Publish(pub, MakeTuple(1, 1));
  EXPECT_GT(net.total_bytes(), 0u);
  net.ResetStats();
  EXPECT_EQ(net.total_bytes(), 0u);
  EXPECT_TRUE(net.link_stats().empty());
  EXPECT_EQ(net.total_deliveries(), 0u);
}

TEST(Network, WeightedBytesUsesEdgeWeights) {
  auto tree = DisseminationTree::FromEdges(
                  2, {Edge{0, 1, 10.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  auto pub = net.Advertise(0, "s");
  Profile p;
  p.AddStream("s");
  net.Subscribe(1, p, nullptr);
  net.Publish(pub, MakeTuple(1, 1));
  EXPECT_DOUBLE_EQ(net.WeightedBytes(),
                   static_cast<double>(net.total_bytes()) * 10.0);
}

// Property: CBN delivery matches direct profile evaluation — every
// subscriber receives exactly the datagrams its profile covers.
class CbnDeliveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CbnDeliveryPropertyTest, DeliveryEqualsCoverage) {
  Rng rng(GetParam());
  TopologyOptions topo_opts;
  topo_opts.num_nodes = 25;
  topo_opts.seed = GetParam();
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  auto tree =
      DisseminationTree::FromEdges(25, *MinimumSpanningTree(topo.graph))
          .value();
  ContentBasedNetwork net(std::move(tree));
  auto pubs = PublishersEverywhere(net);

  struct Sub {
    Profile profile;
    int hits = 0;
  };
  std::vector<std::unique_ptr<Sub>> subs;
  for (int i = 0; i < 8; ++i) {
    auto sub = std::make_unique<Sub>();
    ConjunctiveClause c;
    double lo = rng.NextInt(-10, 30);
    c.ConstrainInterval("temp", Interval(lo, false, lo + rng.NextInt(2, 15),
                                         false));
    sub->profile.AddFilter(Filter("s", std::move(c)));
    Sub* raw = sub.get();
    net.Subscribe(static_cast<NodeId>(rng.NextBounded(25)), raw->profile,
                  [raw](const std::string&, const Tuple&) { ++raw->hits; });
    subs.push_back(std::move(sub));
  }

  std::vector<Datagram> published;
  for (int i = 0; i < 100; ++i) {
    Datagram d{"s", MakeTuple(rng.NextInt(-10, 40), rng.NextInt(0, 100), i)};
    net.Publish(pubs[rng.NextBounded(25)], d.tuple);
    published.push_back(d);
  }

  for (const auto& sub : subs) {
    int expected = 0;
    for (const auto& d : published) {
      if (sub->profile.Covers(d)) ++expected;
    }
    EXPECT_EQ(sub->hits, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CbnDeliveryPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Regression for DST seed 313: a filtered subscription propagated after an
// unfiltered one projecting the same attributes used to be covering-pruned,
// after which early projection stripped the filtered attribute upstream and
// the filtered subscriber went deaf — initially or after a tree rebuild.
TEST(Network, PrunedFilteredSubscriberStillServedUnderEarlyProjection) {
  // Chain 0-1-2-3; publisher at 0.
  auto tree = DisseminationTree::FromEdges(
                  4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree), Flooded());
  auto pub = net.Advertise(0, "s");
  int plain_hits = 0;
  int filtered_hits = 0;
  Profile plain;  // everything, but only "hum" retained
  plain.AddStream("s", {"hum"});
  net.Subscribe(2, plain,
                [&](const std::string&, const Tuple&) { ++plain_hits; });
  Profile filtered;  // same projection, but needs "temp" to decide
  filtered.AddStream("s", {"hum"});
  filtered.AddFilter(Filter("s", Clause("temp > 20")));
  net.Subscribe(3, filtered,
                [&](const std::string&, const Tuple&) { ++filtered_hits; });

  net.Publish(pub, MakeTuple(25, 50));
  EXPECT_EQ(plain_hits, 1);
  EXPECT_EQ(filtered_hits, 1) << "filtered subscriber starved of 'temp'";

  // Rebuilding reinstalls subscriptions in registry order (unfiltered
  // first), the exact shape that used to trigger the faulty prune.
  auto same_tree = DisseminationTree::FromEdges(
                       4, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}, Edge{2, 3, 1.0}})
                       .value();
  ASSERT_TRUE(net.RebuildTree(std::move(same_tree)).ok());
  net.Publish(pub, MakeTuple(30, 60));
  EXPECT_EQ(plain_hits, 2);
  EXPECT_EQ(filtered_hits, 2) << "filtered subscriber deaf after rebuild";

  // Below the filter threshold only the unfiltered subscriber fires.
  net.Publish(pub, MakeTuple(10, 70));
  EXPECT_EQ(plain_hits, 3);
  EXPECT_EQ(filtered_hits, 2);
}

// A publish nobody can receive only counts. The publishers' ids are the
// only ones in the table, so alternating two such streams takes no further
// id and resolves each stream's counters by name once.
TEST(Network, PublishWithoutSubscribersOnlyCounts) {
  ContentBasedNetwork net(StarTree());
  auto s_pub = net.Advertise(0, "s");
  auto t_pub = net.Advertise(0, "t");
  const auto t_schema = std::make_shared<Schema>(
      "t", std::vector<AttributeDef>{{"x", ValueType::kDouble}});
  const Tuple s_tuple = MakeTuple(25, 50);
  const Tuple t_tuple(t_schema, {Value(1.0)}, 0);
  constexpr uint64_t kPublishes = 10000;
  for (uint64_t i = 0; i < kPublishes; ++i) {
    EXPECT_EQ(i % 2 == 0 ? net.Publish(s_pub, s_tuple)
                         : net.Publish(t_pub, t_tuple),
              0u);
  }
  EXPECT_EQ(net.streams().size(), 2u);
  auto counter = [&net](const std::string& name) -> uint64_t {
    const Counter* c = net.metrics().FindCounter(name);
    return c == nullptr ? 0 : c->value();
  };
  EXPECT_EQ(counter("cbn.ledger_binds"), 2u);
  for (const auto& [stream, size] :
       {std::pair<std::string, size_t>{"s",
                                       Datagram{"s", s_tuple}.SerializedSize()},
        std::pair<std::string, size_t>{
            "t", Datagram{"t", t_tuple}.SerializedSize()}}) {
    EXPECT_EQ(counter(MetricsRegistry::LabeledName("cbn.published", "stream",
                                                   stream)),
              kPublishes / 2)
        << stream;
    EXPECT_EQ(net.published_bytes_by_stream().at(stream),
              kPublishes / 2 * size)
        << stream;
  }
  EXPECT_EQ(net.total_datagrams_forwarded(), 0u);

  int hits = 0;
  Profile p;
  p.AddStream("s");
  net.Subscribe(2, p, [&](const std::string&, const Tuple&) { ++hits; });
  EXPECT_EQ(net.Publish(s_pub, s_tuple), 1u);
  EXPECT_EQ(hits, 1);
  // The subscription shares the id the publisher holds.
  EXPECT_EQ(net.streams().size(), 2u);
  EXPECT_EQ(counter("cbn.ledger_binds"), 2u);
  EXPECT_EQ(counter(MetricsRegistry::LabeledName("cbn.published", "stream",
                                                 "s")),
            kPublishes / 2 + 1);
}

// 0 is the hub of a star whose edges are listed out of id order, so its
// Neighbors() order differs from both the id order and the order the leaves
// subscribe in. A synchronous publish reaches the leaves in Neighbors()
// order.
TEST(Network, ForwardOrderFollowsTreeNeighbors) {
  auto tree = DisseminationTree::FromEdges(
                  6, {Edge{0, 4, 1.0}, Edge{0, 2, 1.0}, Edge{5, 0, 1.0},
                      Edge{0, 1, 1.0}, Edge{3, 0, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  auto pub = net.Advertise(0, "s");
  auto pub5 = net.Advertise(5, "s");
  std::vector<NodeId> order;
  for (NodeId leaf : {3, 1, 5, 2, 4}) {
    Profile p;
    p.AddStream("s");
    net.Subscribe(leaf, p, [&order, leaf](const std::string&, const Tuple&) {
      order.push_back(leaf);
    });
  }
  std::vector<NodeId> hub_order;
  for (const auto& [n, w] : net.tree().Neighbors(0)) hub_order.push_back(n);
  ASSERT_EQ(hub_order, (std::vector<NodeId>{4, 2, 5, 1, 3}));

  EXPECT_EQ(net.Publish(pub, MakeTuple(1, 1)), 5u);
  EXPECT_EQ(order, hub_order);

  // From a leaf: its own subscriber first, then the hub's other links.
  order.clear();
  EXPECT_EQ(net.Publish(pub5, MakeTuple(1, 1)), 5u);
  EXPECT_EQ(order, (std::vector<NodeId>{5, 4, 2, 1, 3}));
}

// A router keeps its buckets in the position order of the tree it was
// built for. Rebuilding onto a tree whose hub lists its leaves in another
// order, and repairing a failed link by splicing a leaf in behind another
// one, both rebuild the routers, so a synchronous publish follows the new
// Neighbors() order each time.
TEST(Network, HopOrderFollowsRebuiltAndRepairedTree) {
  auto tree = DisseminationTree::FromEdges(
                  6, {Edge{0, 4, 1.0}, Edge{0, 2, 1.0}, Edge{5, 0, 1.0},
                      Edge{0, 1, 1.0}, Edge{3, 0, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  auto pub = net.Advertise(0, "s");
  std::vector<NodeId> order;
  for (NodeId leaf : {3, 1, 5, 2, 4}) {
    Profile p;
    p.AddStream("s");
    net.Subscribe(leaf, p, [&order, leaf](const std::string&, const Tuple&) {
      order.push_back(leaf);
    });
  }
  auto neighbors = [&net](NodeId node) {
    std::vector<NodeId> ids;
    for (const auto& [n, w] : net.tree().Neighbors(node)) ids.push_back(n);
    return ids;
  };
  EXPECT_EQ(net.Publish(pub, MakeTuple(1, 1)), 5u);
  EXPECT_EQ(order, (std::vector<NodeId>{4, 2, 5, 1, 3}));

  ASSERT_TRUE(net.RebuildTree(
                     DisseminationTree::FromEdges(
                         6, {Edge{0, 1, 1.0}, Edge{0, 2, 1.0},
                             Edge{0, 3, 1.0}, Edge{0, 4, 1.0},
                             Edge{0, 5, 1.0}})
                         .value())
                  .ok());
  ASSERT_EQ(neighbors(0), (std::vector<NodeId>{1, 2, 3, 4, 5}));
  order.clear();
  EXPECT_EQ(net.Publish(pub, MakeTuple(1, 1)), 5u);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 2, 3, 4, 5}));

  // Leaf 2 loses its link to the hub and comes back behind leaf 5.
  Graph overlay(6);
  for (NodeId leaf = 1; leaf <= 5; ++leaf) {
    ASSERT_TRUE(overlay.AddEdge(0, leaf, 1.0).ok());
  }
  ASSERT_TRUE(overlay.AddEdge(2, 5, 1.0).ok());
  ASSERT_TRUE(net.FailLink(0, 2).ok());
  ASSERT_TRUE(net.Repair(overlay).ok());
  ASSERT_EQ(neighbors(0), (std::vector<NodeId>{1, 3, 4, 5}));
  ASSERT_EQ(neighbors(5), (std::vector<NodeId>{0, 2}));
  order.clear();
  EXPECT_EQ(net.Publish(pub, MakeTuple(1, 1)), 5u);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 3, 4, 5, 2}));
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_TRUE(net.router(n).table().CheckInvariants()) << "node " << n;
  }
}

// A delivery callback may change routing state in the middle of a
// synchronous publish. Here the first leaf's subscriber, on the first
// datagram, subscribes at a leaf that had no bucket and unsubscribes the
// one at a leaf that had; the rest of the same publish sees both changes.
// The new profile also requests a new stream, so the hub's per-stream
// index grows while the publish is visiting it. The last leaf's
// subscriber then re-subscribes at the unsubscribed leaf, which creates a
// bucket behind the walk's cursor: that publish does not go back for it,
// and the next one reaches it.
TEST(Network, CallbackChurnDuringPublish) {
  auto tree = DisseminationTree::FromEdges(
                  5, {Edge{0, 1, 1.0}, Edge{0, 2, 1.0}, Edge{0, 3, 1.0},
                      Edge{0, 4, 1.0}})
                  .value();
  ContentBasedNetwork net(std::move(tree));
  auto pub = net.Advertise(0, "s");
  std::vector<NodeId> order;
  auto record = [&order](NodeId leaf) {
    return [&order, leaf](const std::string&, const Tuple&) {
      order.push_back(leaf);
    };
  };
  Profile whole;
  whole.AddStream("s");
  const ProfileId at2 = net.Subscribe(2, whole, record(2));
  bool resubscribed = false;
  net.Subscribe(4, whole, [&](const std::string&, const Tuple&) {
    order.push_back(4);
    if (resubscribed) return;
    resubscribed = true;
    net.Subscribe(2, whole, record(2));
  });
  bool churned = false;
  net.Subscribe(1, whole, [&](const std::string&, const Tuple&) {
    order.push_back(1);
    if (churned) return;
    churned = true;
    Profile wider;
    wider.AddStream("s");
    wider.AddStream("u");
    net.Subscribe(3, wider, record(3));
    EXPECT_TRUE(net.Unsubscribe(at2));
  });

  EXPECT_EQ(net.Publish(pub, MakeTuple(1, 1)), 3u);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 3, 4}));
  order.clear();
  EXPECT_EQ(net.Publish(pub, MakeTuple(2, 2)), 4u);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_TRUE(net.router(0).table().CheckInvariants());
}

// Result streams are renamed grp_<id>_v<version> on every representative
// change. Cycling many versions through advertise/subscribe/publish/
// unsubscribe must leave the stream-id table and the cached projection
// plans where the live subscriptions put them: no per-version state
// outlives its stream.
TEST(StreamIds, ResultVersionChurnReturnsToLiveSet) {
  ContentBasedNetwork net(StarTree());
  auto source_pub = net.Advertise(0, "s");
  // A long-lived projected subscription to a source stream.
  int source_hits = 0;
  Profile source;
  source.AddStream("s", {"hum"});
  source.AddFilter(Filter("s", Clause("temp > 0")));
  net.Subscribe(2, source, [&](const std::string&, const Tuple& t) {
    EXPECT_EQ(t.num_values(), 1u);
    ++source_hits;
  });
  const auto source_schema = SensorSchema();
  auto publish_source = [&] {
    net.Publish(source_pub, Tuple(source_schema,
                                  {Value(5.0), Value(50.0), Value(int64_t{0})},
                                  0));
  };
  publish_source();
  ASSERT_EQ(source_hits, 1);
  const size_t live = net.streams().live();
  const size_t ids = net.streams().size();
  const size_t plans = net.CachedProjectionPlans();
  ASSERT_GT(plans, 0u);

  int version_hits = 0;
  for (int v = 0; v < 1000; ++v) {
    const std::string name = "grp_1_v" + std::to_string(v);
    // Each version installs its own result schema, as a representative
    // reinstall does.
    auto schema = std::make_shared<Schema>(
        name, std::vector<AttributeDef>{{"x", ValueType::kDouble},
                                        {"y", ValueType::kDouble}});
    auto pub = net.Advertise(1, name);
    Profile user;
    user.AddStream(name, {"x"});
    const ProfileId id =
        net.Subscribe(3, user, [&](const std::string& stream, const Tuple& t) {
          EXPECT_EQ(stream, name);
          ASSERT_EQ(t.num_values(), 1u);
          EXPECT_EQ(t.schema()->attribute(0).name, "x");
          ++version_hits;
        });
    net.Publish(pub, Tuple(schema, {Value(1.0 * v), Value(2.0)}, 0));
    ASSERT_TRUE(net.Unsubscribe(id));
    // Source traffic interleaves with the churn.
    if (v % 100 == 0) publish_source();
  }
  EXPECT_EQ(version_hits, 1000);
  EXPECT_EQ(source_hits, 11);
  // Each version's advertisement went with its publisher.
  EXPECT_EQ(net.PublishersOf("grp_1_v0"), nullptr);
  EXPECT_EQ(net.PublishersOf("grp_1_v999"), nullptr);
  ASSERT_NE(net.PublishersOf("s"), nullptr);
  EXPECT_EQ(*net.PublishersOf("s"), std::set<NodeId>{0});
  EXPECT_EQ(net.streams().live(), live);
  EXPECT_LE(net.streams().size(), ids + 1);
  EXPECT_EQ(net.CachedProjectionPlans(), plans);
}

}  // namespace
}  // namespace cosmos
