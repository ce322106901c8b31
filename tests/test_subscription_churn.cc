// Subscription maintenance under churn: an unsubscribe re-forwards only
// what it was covering, and the routing state it leaves behind forwards
// exactly like state built from scratch for the same live subscriptions.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "cbn/network.h"
#include "common/random.h"
#include "common/string_util.h"
#include "overlay/spanning_tree.h"
#include "overlay/topology.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> StreamSchema(const std::string& stream) {
  return std::make_shared<Schema>(
      stream, std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40},
                                        {"hum", ValueType::kDouble, 0, 100},
                                        {"timestamp", ValueType::kInt64}});
}

Datagram MakeDatagram(const std::string& stream, double temp, double hum) {
  static const auto& schemas =
      *new std::map<std::string, std::shared_ptr<const Schema>>{
          {"s", StreamSchema("s")}, {"t", StreamSchema("t")}};
  return Datagram{stream, Tuple(schemas.at(stream),
                                {Value(temp), Value(hum), Value(int64_t{0})},
                                0)};
}

// The classic CBN regime: every subscription floods the whole tree,
// pruned by covering.
NetworkOptions Flooded() {
  NetworkOptions options;
  options.advertisement_scoping = false;
  options.covering_prune = true;
  return options;
}

DisseminationTree BaTree(int nodes, uint64_t seed) {
  TopologyOptions topo_opts;
  topo_opts.num_nodes = nodes;
  topo_opts.seed = seed;
  Topology topo = GenerateBarabasiAlbert(topo_opts);
  return DisseminationTree::FromEdges(nodes, *MinimumSpanningTree(topo.graph))
      .value();
}

// A temp interval on a coarse grid, so random profiles nest, overlap and
// coincide often.
Filter TempFilter(const std::string& stream, Rng& rng) {
  const double lo = static_cast<double>(rng.NextInt(-2, 3) * 10);
  const double hi = lo + static_cast<double>(rng.NextInt(1, 4) * 10);
  ConjunctiveClause c;
  c.ConstrainInterval("temp", Interval(lo, false, hi, false));
  if (rng.NextBool(0.25)) {
    c.ConstrainInterval("hum", Interval(0, false, 50, false));
  }
  return Filter(stream, std::move(c));
}

// One stream's part of a random profile: the whole stream or one or two
// temp filters, with all attributes or a projection.
void AddRandomStream(Profile* p, const std::string& stream, Rng& rng) {
  static const std::vector<std::vector<std::string>> kProjections = {
      {}, {"hum"}, {"temp"}, {"temp", "hum"}};
  p->AddStream(stream, kProjections[rng.NextBounded(kProjections.size())]);
  if (rng.NextBool(0.2)) return;  // the whole stream
  p->AddFilter(TempFilter(stream, rng));
  if (rng.NextBool(0.2)) p->AddFilter(TempFilter(stream, rng));
}

Profile RandomProfile(Rng& rng) {
  Profile p;
  switch (rng.NextBounded(4)) {
    case 0:
      AddRandomStream(&p, "t", rng);
      break;
    case 1:  // multi-stream
      AddRandomStream(&p, "s", rng);
      AddRandomStream(&p, "t", rng);
      break;
    default:
      AddRandomStream(&p, "s", rng);
      break;
  }
  return p;
}

// `p` with each stream's part narrowed or widened. Narrowing filters a
// whole stream, drops the last of several filters, or names the projection
// where it takes every attribute; widening takes the whole stream or adds a
// filter where the stream is filtered, and every attribute where it is not.
Profile Reshaped(const Profile& p, bool widen, Rng& rng) {
  Profile out;
  for (const std::string& stream : p.streams()) {
    const Profile part = p.StreamPart(stream);
    std::vector<Filter> filters = part.filters();
    std::vector<std::string> projection = part.ProjectionOf(stream);
    if (widen) {
      if (filters.empty()) {
        projection.clear();
      } else if (rng.NextBool()) {
        filters.clear();
      } else {
        filters.push_back(TempFilter(stream, rng));
      }
    } else if (filters.empty()) {
      filters.push_back(TempFilter(stream, rng));
    } else if (filters.size() > 1) {
      filters.pop_back();
    } else if (projection.empty()) {
      projection = {"temp", "hum"};
    }
    out.AddStream(stream, projection);
    for (Filter& f : filters) out.AddFilter(std::move(f));
  }
  return out;
}

// A live subscription of the churn sequence: its subscriber and profile,
// and its id in the churned and in the unpruned network.
struct Live {
  NodeId node = -1;
  Profile profile;
  ProfileId churned = 0;
  ProfileId unpruned = 0;
};

// The datagram `net` puts on the wire from `node` toward `link`.
std::optional<Tuple> Forwarded(const ContentBasedNetwork& net, NodeId node,
                               NodeId link, Datagram d) {
  d.stream_id = net.streams().Find(d.stream);
  const RoutingTable::StreamBucket* bucket =
      net.router(node).table().BucketFor(link, d.stream_id);
  if (bucket == nullptr) return std::nullopt;
  std::optional<Datagram> projected;
  const Datagram* out = net.router(node).DecideForward(
      d, *bucket, /*early_projection=*/true, &projected);
  if (out == nullptr) return std::nullopt;
  return out->tuple;
}

// Seeded random Subscribe/Unsubscribe/Update sequences, with duplicate,
// nested, multi-stream and projected profiles, each update narrowing or
// widening one, in every regime of scoping and covering. Each stream has a
// few publishers, and one more of "s" appears halfway. After every step
// the churned network must forward exactly like one freshly built from the
// live set and like one that never prunes, at every (node, neighbor), and
// deliver like the unpruned one.
TEST(SubscriptionChurn, MatchesFreshBuildAfterEveryStep) {
  const int kNodes[] = {30, 55, 80, 100};
  for (const bool scoping : {false, true}) {
    for (const bool covering : {false, true}) {
      SCOPED_TRACE(StrFormat("scoping=%d covering=%d", scoping, covering));
      NetworkOptions options;
      options.advertisement_scoping = scoping;
      options.covering_prune = covering;
      NetworkOptions no_prune = options;
      no_prune.covering_prune = false;
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng = Rng(0xC0FFEE).Derive(seed);
        const int nodes = kNodes[seed - 1];
        const DisseminationTree tree = BaTree(nodes, seed);
        // Publisher nodes by stream; the last of "s" advertises halfway.
        std::map<std::string, std::vector<NodeId>> at;
        for (const std::string stream : {"s", "t"}) {
          for (int i = 0; i < 3; ++i) {
            at[stream].push_back(static_cast<NodeId>(rng.NextBounded(nodes)));
          }
        }
        const NodeId late = at["s"].back();
        at["s"].pop_back();
        auto advertise = [&at](ContentBasedNetwork& net) {
          std::map<std::string, std::vector<ContentBasedNetwork::Publisher>>
              pubs;
          for (const auto& [stream, publishers] : at) {
            for (NodeId n : publishers) {
              pubs[stream].push_back(net.Advertise(n, stream));
            }
          }
          return pubs;
        };
        ContentBasedNetwork churned(tree, options);
        ContentBasedNetwork unpruned(tree, no_prune);
        auto churned_pubs = advertise(churned);
        auto unpruned_pubs = advertise(unpruned);
        std::vector<Live> live;
        // Deliveries per subscription of the sequence, per network.
        int next_key = 0;
        std::map<int, int> churned_hits;
        std::map<int, int> unpruned_hits;
        std::vector<Profile> history;
        // Half the subscribers share a few nodes, so profiles meet on the
        // same links and prune behind one another.
        std::vector<NodeId> pool;
        for (int i = 0; i < 3; ++i) {
          pool.push_back(static_cast<NodeId>(rng.NextBounded(nodes)));
        }

        for (int step = 0; step < 60; ++step) {
          if (step == 30) {
            at["s"].push_back(late);
            churned_pubs["s"].push_back(churned.Advertise(late, "s"));
            unpruned_pubs["s"].push_back(unpruned.Advertise(late, "s"));
          }
          const double action = rng.NextDouble();
          if (live.empty() || (live.size() < 24 && action < 0.45)) {
            Live l;
            l.node = rng.NextBool()
                         ? pool[rng.NextBounded(pool.size())]
                         : static_cast<NodeId>(rng.NextBounded(nodes));
            l.profile = !history.empty() && rng.NextBool(0.3)
                            ? history[rng.NextBounded(history.size())]
                            : RandomProfile(rng);
            history.push_back(l.profile);
            const int key = next_key++;
            churned_hits[key] = 0;
            unpruned_hits[key] = 0;
            l.churned = churned.Subscribe(
                l.node, l.profile,
                [&churned_hits, key](const std::string&, const Tuple&) {
                  ++churned_hits[key];
                });
            l.unpruned = unpruned.Subscribe(
                l.node, l.profile,
                [&unpruned_hits, key](const std::string&, const Tuple&) {
                  ++unpruned_hits[key];
                });
            live.push_back(std::move(l));
          } else if (action < 0.75) {
            Live& l = live[rng.NextBounded(live.size())];
            l.profile = Reshaped(l.profile, /*widen=*/rng.NextBool(), rng);
            history.push_back(l.profile);
            ASSERT_TRUE(churned.Update(l.churned, l.profile));
            ASSERT_TRUE(unpruned.Update(l.unpruned, l.profile));
          } else {
            const size_t victim = rng.NextBounded(live.size());
            ASSERT_TRUE(churned.Unsubscribe(live[victim].churned));
            ASSERT_TRUE(unpruned.Unsubscribe(live[victim].unpruned));
            live.erase(live.begin() + static_cast<long>(victim));
          }

          ContentBasedNetwork fresh(tree, options);
          auto fresh_pubs = advertise(fresh);
          for (const Live& l : live) {
            fresh.Subscribe(l.node, l.profile, nullptr);
          }

          std::vector<Datagram> samples;
          for (int k = 0; k < 4; ++k) {
            samples.push_back(
                MakeDatagram(rng.NextBool() ? "s" : "t",
                             static_cast<double>(rng.NextInt(-15, 45)),
                             static_cast<double>(rng.NextInt(0, 100))));
          }
          for (NodeId n = 0; n < nodes; ++n) {
            ASSERT_TRUE(churned.router(n).table().CheckInvariants())
                << "seed " << seed << " step " << step << " node " << n;
            for (const auto& [link, w] : tree.Neighbors(n)) {
              for (const Datagram& d : samples) {
                const std::optional<Tuple> got =
                    Forwarded(churned, n, link, d);
                const std::optional<Tuple> want = Forwarded(fresh, n, link, d);
                ASSERT_EQ(got.has_value(), want.has_value())
                    << "seed " << seed << " step " << step << " hop " << n
                    << "->" << link << " " << d.tuple.ToString();
                if (got.has_value()) {
                  ASSERT_EQ(*got, *want)
                      << "seed " << seed << " step " << step;
                }
                ASSERT_EQ(Forwarded(unpruned, n, link, d), want)
                    << "seed " << seed << " step " << step;
              }
            }
          }
          for (const Datagram& d : samples) {
            const size_t k = rng.NextBounded(at.at(d.stream).size());
            churned.Publish(churned_pubs.at(d.stream)[k], d.tuple);
            unpruned.Publish(unpruned_pubs.at(d.stream)[k], d.tuple);
          }
          ASSERT_EQ(churned_hits, unpruned_hits)
              << "seed " << seed << " step " << step;
        }
      }
    }
  }
}

// The covering-check count of one seeded submit/remove sequence, pinned:
// cbn.covering_checks counts every slot a covering check examines, so a
// faster check that skipped counting some slots would change it.
TEST(SubscriptionChurn, CoveringCheckCountIsPinned) {
  const int kNodes = 60;
  const DisseminationTree tree = BaTree(kNodes, 11);
  ContentBasedNetwork net(tree, Flooded());
  Rng rng = Rng(0xC0FFEE).Derive(11);
  std::vector<ProfileId> live;
  std::vector<Profile> history;
  std::vector<NodeId> pool;
  for (int i = 0; i < 4; ++i) {
    pool.push_back(static_cast<NodeId>(rng.NextBounded(kNodes)));
  }
  for (int step = 0; step < 200; ++step) {
    if (live.empty() || rng.NextBool(0.65)) {
      const NodeId node = rng.NextBool()
                              ? pool[rng.NextBounded(pool.size())]
                              : static_cast<NodeId>(rng.NextBounded(kNodes));
      Profile p = !history.empty() && rng.NextBool(0.3)
                      ? history[rng.NextBounded(history.size())]
                      : RandomProfile(rng);
      history.push_back(p);
      live.push_back(net.Subscribe(node, std::move(p), nullptr));
    } else {
      const size_t victim = rng.NextBounded(live.size());
      ASSERT_TRUE(net.Unsubscribe(live[victim]));
      live.erase(live.begin() + static_cast<long>(victim));
    }
  }
  EXPECT_EQ(net.covering_checks(), 16095u);
  EXPECT_EQ(net.metrics().FindCounter("cbn.covering_checks")->value(),
            net.covering_checks());
  EXPECT_EQ(net.control_messages(), 3341u);
}

// The cost of an unsubscribe follows what it was covering, not how many
// subscriptions are live: removing a profile that covers nothing sends no
// control message and makes no covering check, at any table size.
TEST(SubscriptionChurn, RemovingAProfileThatCoversNothingIsFree) {
  const int kNodes = 100;
  const DisseminationTree tree = BaTree(kNodes, 7);
  for (int live : {10, 100, 1000}) {
    ContentBasedNetwork net(tree, Flooded());
    Rng rng(static_cast<uint64_t>(live));
    // Subscribers sit on a pool of nodes. Each first takes the whole
    // stream, then narrow, pairwise disjoint temp ranges the whole-stream
    // profile covers.
    std::vector<NodeId> pool;
    for (int i = 0; i < std::max(2, live / 10); ++i) {
      pool.push_back(static_cast<NodeId>(rng.NextBounded(kNodes)));
    }
    std::vector<bool> has_whole(kNodes, false);
    std::vector<ProfileId> narrow;
    for (int n = 0; n < live; ++n) {
      const NodeId node = pool[rng.NextBounded(pool.size())];
      Profile p;
      if (!has_whole[node]) {
        p.AddStream("s");
        has_whole[node] = true;
        net.Subscribe(node, p, nullptr);
        continue;
      }
      ConjunctiveClause c;
      const double lo = static_cast<double>(n);
      c.ConstrainInterval("temp", Interval(lo, false, lo + 0.5, false));
      p.AddFilter(Filter("s", std::move(c)));
      narrow.push_back(net.Subscribe(node, p, nullptr));
    }
    ASSERT_FALSE(narrow.empty()) << live;
    const ProfileId victim = narrow[narrow.size() / 2];
    const uint64_t messages = net.control_messages();
    const uint64_t checks = net.covering_checks();
    ASSERT_TRUE(net.Unsubscribe(victim));
    EXPECT_EQ(net.control_messages() - messages, 0u) << live << " live";
    EXPECT_EQ(net.covering_checks() - checks, 0u) << live << " live";
    EXPECT_EQ(net.metrics().FindCounter("cbn.covering_checks")->value(),
              net.covering_checks());
    for (NodeId n = 0; n < kNodes; ++n) {
      const RoutingTable& table = net.router(n).table();
      ASSERT_TRUE(table.CheckInvariants()) << "node " << n;
      for (StreamId sid = 0; sid < net.streams().size(); ++sid) {
        for (const auto& lb : table.BucketsOf(sid)) {
          for (const auto& slot : lb.bucket.slots()) {
            EXPECT_NE(slot.id, victim) << "node " << n << " link " << lb.link;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cosmos
