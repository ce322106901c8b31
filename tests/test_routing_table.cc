#include "cbn/routing_table.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <utility>

#include "cbn/covering.h"
#include "cbn/network.h"
#include "cbn/router.h"
#include "common/random.h"
#include "common/string_util.h"
#include "overlay/graph.h"
#include "telemetry/registry.h"

namespace cosmos {
namespace {

// `profile` resolved as routing entry `id`, the way the network resolves
// a subscription once.
RoutingTable::EntryPtr Resolve(StreamTable& streams, ProfileId id,
                               ProfilePtr profile) {
  return RoutingTable::Resolve(&streams, id, std::move(profile));
}

const std::shared_ptr<const Schema>& SensorSchema() {
  // One shared instance: ProjectionCache keys plans on the schema pointer.
  static const auto& schema = *new std::shared_ptr<const Schema>(
      std::make_shared<Schema>(
          "s",
          std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40},
                                    {"hum", ValueType::kDouble, 0, 100}}));
  return schema;
}

// A datagram of "s" carrying the id `streams` assigned to it, as
// ContentBasedNetwork::Publish stamps it.
Datagram MakeDatagram(const StreamTable& streams, double temp,
                      double hum = 50) {
  return Datagram{"s", Tuple(SensorSchema(), {Value(temp), Value(hum)}, 0),
                  streams.Find("s")};
}

// The datagram `r` puts on the wire toward `link` (nullopt: none).
std::optional<Datagram> Forward(const Router& r, const Datagram& d,
                                NodeId link, bool early_projection = true) {
  const RoutingTable::StreamBucket* bucket =
      r.table().BucketFor(link, d.stream_id);
  if (bucket == nullptr) return std::nullopt;
  std::optional<Datagram> projected;
  const Datagram* out =
      r.DecideForward(d, *bucket, early_projection, &projected);
  if (out == nullptr) return std::nullopt;
  return *out;
}

ProfilePtr MakeProfile(double lo, double hi,
                       std::vector<std::string> projection = {}) {
  auto p = std::make_shared<Profile>();
  ConjunctiveClause c;
  c.ConstrainInterval("temp", Interval(lo, false, hi, false));
  p->AddStream("s", std::move(projection));
  p->AddFilter(Filter("s", std::move(c)));
  return p;
}

// The ids of the entries on `link`, read from every stream's buckets.
std::set<ProfileId> EntriesOn(const RoutingTable& t,
                              const StreamTable& streams, NodeId link) {
  std::set<ProfileId> ids;
  for (StreamId sid = 0; sid < streams.size(); ++sid) {
    for (const auto& lb : t.BucketsOf(sid)) {
      if (lb.link != link) continue;
      for (const auto& slot : lb.bucket.slots()) ids.insert(slot.id);
    }
  }
  return ids;
}

// The links with at least one entry, in link order.
std::set<NodeId> LinksOf(const RoutingTable& t, const StreamTable& streams) {
  std::set<NodeId> links;
  for (StreamId sid = 0; sid < streams.size(); ++sid) {
    for (const auto& lb : t.BucketsOf(sid)) links.insert(lb.link);
  }
  return links;
}

TEST(RoutingTable, AddAndLookup) {
  StreamTable streams;
  RoutingTable t(&streams);
  t.Add(3, Resolve(streams, 1, MakeProfile(0, 10)));
  t.Add(3, Resolve(streams, 2, MakeProfile(20, 30)));
  t.Add(5, Resolve(streams, 3, MakeProfile(0, 40)));
  EXPECT_EQ(EntriesOn(t, streams, 3), (std::set<ProfileId>{1, 2}));
  EXPECT_EQ(EntriesOn(t, streams, 5), (std::set<ProfileId>{3}));
  EXPECT_TRUE(EntriesOn(t, streams, 9).empty());
  EXPECT_EQ(t.TotalEntries(), 3u);
  EXPECT_EQ(LinksOf(t, streams), (std::set<NodeId>{3, 5}));
}

// A link carries a datagram when any one of its profiles covers it.
TEST(RoutingTable, LinkCoversAnyProfile) {
  StreamTable streams;
  Router r(0, &streams);
  r.table().Add(3, Resolve(streams, 1, MakeProfile(0, 10)));
  r.table().Add(3, Resolve(streams, 2, MakeProfile(20, 30)));
  EXPECT_TRUE(Forward(r, MakeDatagram(streams, 5), 3).has_value());
  EXPECT_TRUE(Forward(r, MakeDatagram(streams, 25), 3).has_value());
  EXPECT_FALSE(Forward(r, MakeDatagram(streams, 15), 3).has_value());
  EXPECT_FALSE(Forward(r, MakeDatagram(streams, 5), 9).has_value());
}

// The bucket's compiled matcher returns every slot whose profile covers
// the datagram.
TEST(RoutingTable, BucketMatcherReturnsEveryCoveringSlot) {
  StreamTable streams;
  RoutingTable t(&streams);
  t.Add(3, Resolve(streams, 1, MakeProfile(0, 20)));
  t.Add(3, Resolve(streams, 2, MakeProfile(10, 30)));
  const RoutingTable::StreamBucket* bucket =
      t.BucketFor(3, streams.Find("s"));
  ASSERT_NE(bucket, nullptr);
  CompiledMatcher::Scratch scratch;
  std::vector<uint32_t> hits;
  for (const auto& [temp, want] :
       {std::pair<double, std::vector<uint32_t>>{15, {0, 1}},
        std::pair<double, std::vector<uint32_t>>{5, {0}}}) {
    const Datagram d = MakeDatagram(streams, temp);
    bucket->Compiled("s").Match(d, &scratch, &hits);
    EXPECT_EQ(hits, want) << "temp " << temp;
    for (uint32_t h : hits) {
      EXPECT_TRUE(bucket->slots()[h].profile().Covers(d));
    }
  }
}

TEST(RoutingTable, RemoveByIdOnLink) {
  StreamTable streams;
  RoutingTable t(&streams);
  const ProfilePtr p1 = MakeProfile(0, 10);
  const ProfilePtr p2 = MakeProfile(20, 30);
  t.Add(3, Resolve(streams, 1, p1));
  t.Add(3, Resolve(streams, 2, p2));
  EXPECT_TRUE(t.Remove(3, *Resolve(streams, 1, p1)));
  EXPECT_FALSE(t.Remove(3, *Resolve(streams, 1, p1)));
  EXPECT_EQ(EntriesOn(t, streams, 3), (std::set<ProfileId>{2}));
  EXPECT_FALSE(t.Remove(9, *Resolve(streams, 2, p2)));
}

// Removing a coverer re-checks the entries it covered, in entry order,
// against the unpruned entries left; an entry awaiting its re-check cannot
// cover another.
TEST(RoutingTable, RemoveRechecksWhatItCovered) {
  StreamTable streams;
  RoutingTable t(&streams);
  const ProfilePtr p1 = MakeProfile(0, 40);
  t.Add(3, Resolve(streams, 1, p1));
  t.Add(3, Resolve(streams, 2, MakeProfile(10, 20)), /*covered_by=*/1);
  t.Add(3, Resolve(streams, 3, MakeProfile(10, 20)), /*covered_by=*/1);
  t.Add(3, Resolve(streams, 4, MakeProfile(5, 30)), /*covered_by=*/1);
  ASSERT_TRUE(t.CheckInvariants());
  std::vector<ProfileId> uncovered;
  uint64_t checks = 0;
  ASSERT_TRUE(t.Remove(3, *Resolve(streams, 1, p1), &uncovered, &checks));
  // 2 finds no unpruned coverer; 3 is pruned behind 2; 4 is not covered
  // by 2, and 3 is pruned.
  EXPECT_EQ(uncovered, (std::vector<ProfileId>{2, 4}));
  EXPECT_EQ(checks, 2u);
  std::map<ProfileId, ProfileId> covered_by;
  for (ProfileId e : EntriesOn(t, streams, 3)) covered_by[e] = t.CoveredBy(3, e);
  EXPECT_EQ(covered_by,
            (std::map<ProfileId, ProfileId>{{2, 0}, {3, 2}, {4, 0}}));
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_EQ(
      t.FindCoverer(3, *Resolve(streams, 6, MakeProfile(11, 19)), nullptr),
      2u);
  EXPECT_EQ(
      t.FindCoverer(3, *Resolve(streams, 6, MakeProfile(0, 40)), nullptr),
      0u);
}

// A coverer requests every stream its pruned entry does, and may request
// more: removing it finds the entry through the coverer's buckets,
// re-checks it, and leaves nothing in the buckets only the coverer used.
TEST(RoutingTable, RemovingAMultiStreamCovererRechecksItsPrunedEntry) {
  StreamTable streams;
  RoutingTable t(&streams);
  auto whole = [](std::vector<std::string> names) {
    auto p = std::make_shared<Profile>();
    for (const auto& name : names) p->AddStream(name);
    return ProfilePtr(std::move(p));
  };
  const ProfilePtr wide = whole({"a", "b", "c"});
  const ProfilePtr narrow = whole({"a", "b"});
  t.Add(3, Resolve(streams, 1, wide));
  ASSERT_EQ(t.FindCoverer(3, *Resolve(streams, 2, narrow), nullptr), 1u);
  t.Add(3, Resolve(streams, 2, narrow), /*covered_by=*/1);
  ASSERT_TRUE(t.CheckInvariants());
  const StreamId c = streams.Find("c");
  ASSERT_NE(t.BucketFor(3, c), nullptr);
  std::vector<ProfileId> uncovered;
  ASSERT_TRUE(t.Remove(3, *Resolve(streams, 1, wide), &uncovered));
  EXPECT_EQ(uncovered, (std::vector<ProfileId>{2}));
  EXPECT_EQ(t.CoveredBy(3, 2), 0u);
  EXPECT_EQ(t.BucketFor(3, c), nullptr);
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_TRUE(t.Contains(3, *Resolve(streams, 2, narrow)));
  EXPECT_FALSE(t.Contains(3, *Resolve(streams, 1, wide)));
  EXPECT_EQ(t.TotalEntries(), 1u);
  EXPECT_EQ(t.TotalIndexedSlots(), 2u);
}

// FindCoverer by the reference definition: the slots of the smallest
// bucket of `narrow`'s streams (the first of equal size, in stream order),
// skipping `self` and pruned entries, each judged by ProfileCovers.
// `*examined` counts the slots judged.
ProfileId ReferenceCoverer(const RoutingTable& t, const StreamTable& streams,
                           NodeId link, ProfileId self, const Profile& narrow,
                           uint64_t* examined) {
  *examined = 0;
  const RoutingTable::StreamBucket* smallest = nullptr;
  for (const auto& stream : narrow.streams()) {
    const RoutingTable::StreamBucket* bucket =
        t.BucketFor(link, streams.Find(stream));
    if (bucket == nullptr) return 0;
    if (smallest == nullptr ||
        bucket->slots().size() < smallest->slots().size()) {
      smallest = bucket;
    }
  }
  if (smallest == nullptr) return 0;
  for (const auto& slot : smallest->slots()) {
    if (slot.id == self || t.CoveredBy(link, slot.id) != 0) continue;
    ++*examined;
    if (ProfileCovers(slot.profile(), narrow)) return slot.id;
  }
  return 0;
}

// A random projection: all attributes, or one to three of `names`.
std::vector<std::string> RandomProjection(
    Rng& rng, const std::vector<std::string>& names) {
  std::vector<std::string> out;
  if (rng.NextBool(0.2)) return out;
  const uint64_t n = 1 + rng.NextBounded(3);
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(names[rng.NextBounded(names.size())]);
  }
  return out;
}

// A random profile on "s", or on "s" and "t": each stream whole or with one
// or two intervals on the first two of `names` (a coarse grid, so intervals
// nest often), under a random projection.
ProfilePtr RandomCoverProfile(Rng& rng,
                              const std::vector<std::string>& names) {
  auto p = std::make_shared<Profile>();
  for (const char* stream : {"s", "t"}) {
    if (stream[0] == 't' && rng.NextBool(0.75)) break;
    p->AddStream(stream, RandomProjection(rng, names));
    if (rng.NextBool(0.2)) continue;  // the whole stream
    const uint64_t filters = 1 + rng.NextBounded(2);
    for (uint64_t f = 0; f < filters; ++f) {
      const double lo = static_cast<double>(rng.NextInt(-2, 3) * 10);
      const double hi = lo + static_cast<double>(rng.NextInt(1, 4) * 10);
      ConjunctiveClause c;
      c.ConstrainInterval(names[rng.NextBounded(2)],
                          Interval(lo, false, hi, false));
      p->AddFilter(Filter(stream, std::move(c)));
    }
  }
  return p;
}

// A profile `wide` may well cover: its streams and filters, under a
// projection that drops one name of wide's, or names a few where wide
// takes every attribute.
ProfilePtr Narrowed(Rng& rng, const Profile& wide,
                    const std::vector<std::string>& names) {
  auto p = std::make_shared<Profile>();
  for (const auto& stream : wide.streams()) {
    std::vector<std::string> projection = wide.ProjectionOf(stream);
    if (projection.empty()) {
      projection = RandomProjection(rng, names);
    } else if (projection.size() > 1) {
      projection.erase(projection.begin() +
                       static_cast<long>(rng.NextBounded(projection.size())));
    }
    p->AddStream(stream, std::move(projection));
    const Profile part = wide.StreamPart(stream);
    for (const Filter& f : part.filters()) p->AddFilter(f);
  }
  return p;
}

// Seeded Add/Remove sequences on two links: at every step FindCoverer
// returns the reference coverer, and counts exactly the slots the reference
// examines. The second dictionary has more names than an attribute mask
// holds, so slots requiring the names past it saturate to kAllAttributes
// and must take the exact path.
TEST(RoutingTable, FindCovererAgreesWithProfileCovers) {
  for (const size_t dictionary :
       {size_t{6}, StreamTable::kMaxAttributes + 20}) {
    std::vector<std::string> names;
    for (size_t i = 0; i < dictionary; ++i) {
      names.push_back(StrFormat("a%zu", i));
    }
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng = Rng(0xC0DE).Derive(seed * 1000 + dictionary);
      StreamTable streams;
      RoutingTable t(&streams);
      std::vector<std::pair<NodeId, ProfilePtr>> live;  // index: id - 1
      std::vector<ProfileId> ids;
      size_t covered = 0;
      size_t saturated = 0;
      for (ProfileId id = 1; id <= 300; ++id) {
        const NodeId link = static_cast<NodeId>(rng.NextBounded(2));
        const ProfilePtr p =
            !ids.empty() && rng.NextBool(0.4)
                ? Narrowed(rng,
                           *live[ids[rng.NextBounded(ids.size())] - 1].second,
                           names)
                : RandomCoverProfile(rng, names);
        uint64_t examined = 0;
        uint64_t checks = 0;
        const ProfileId want =
            ReferenceCoverer(t, streams, link, id, *p, &examined);
        ASSERT_EQ(t.FindCoverer(link, *Resolve(streams, id, p), &checks), want)
            << "seed " << seed << " id " << id << " " << p->ToString();
        ASSERT_EQ(checks, examined) << "seed " << seed << " id " << id;
        if (want != 0) ++covered;
        t.Add(link, Resolve(streams, id, p), want);
        live.emplace_back(link, p);
        ids.push_back(id);
        if (rng.NextBool(0.2)) {
          // Remove re-checks what the victim covered through FindCoverer.
          const size_t victim = rng.NextBounded(ids.size());
          const ProfileId gone = ids[victim];
          ASSERT_TRUE(
              t.Remove(live[gone - 1].first,
                       *Resolve(streams, gone, live[gone - 1].second)));
          ids.erase(ids.begin() + static_cast<long>(victim));
        }
      }
      ASSERT_TRUE(t.CheckInvariants()) << "seed " << seed;
      for (StreamId sid = 0; sid < streams.size(); ++sid) {
        for (const auto& lb : t.BucketsOf(sid)) {
          for (const auto& slot : lb.bucket.slots()) {
            if ((slot.required & kAllAttributes) != 0 &&
                !slot.profile().RequiredAttributes(streams.Name(sid))
                     .empty()) {
              ++saturated;
            }
          }
        }
      }
      EXPECT_GT(covered, 10u) << "seed " << seed;
      if (dictionary > StreamTable::kMaxAttributes) {
        EXPECT_GT(saturated, 10u) << "seed " << seed;
      } else {
        EXPECT_EQ(saturated, 0u) << "seed " << seed;
      }
    }
  }
}

TEST(RoutingTable, ContainsChecksLinkAndId) {
  StreamTable streams;
  RoutingTable t(&streams);
  const ProfilePtr p = MakeProfile(0, 10);
  t.Add(3, Resolve(streams, 1, p));
  EXPECT_TRUE(t.Contains(3, *Resolve(streams, 1, p)));
  EXPECT_FALSE(t.Contains(3, *Resolve(streams, 2, p)));
  EXPECT_FALSE(t.Contains(5, *Resolve(streams, 1, p)));
}

// Buckets are kept in the position order of the neighbour list the table
// was built with, whatever order they were created in; a link outside the
// list takes the next position.
TEST(RoutingTable, BucketsOfFollowsNeighborPositions) {
  StreamTable streams;
  RoutingTable t(&streams, {5, 3, 9});
  auto links = [&t, &streams] {
    std::vector<std::pair<NodeId, uint32_t>> out;
    for (const auto& lb : t.BucketsOf(streams.Find("s"))) {
      out.emplace_back(lb.link, lb.position);
    }
    return out;
  };
  const ProfilePtr on9 = MakeProfile(0, 10);
  t.Add(9, Resolve(streams, 1, on9));
  t.Add(3, Resolve(streams, 2, MakeProfile(0, 10)));
  t.Add(7, Resolve(streams, 3, MakeProfile(0, 10)));
  t.Add(5, Resolve(streams, 4, MakeProfile(0, 10)));
  using Links = std::vector<std::pair<NodeId, uint32_t>>;
  EXPECT_EQ(links(), (Links{{5, 0}, {3, 1}, {9, 2}, {7, 3}}));
  // An erased bucket comes back at its position.
  ASSERT_TRUE(t.Remove(9, *Resolve(streams, 1, on9)));
  EXPECT_EQ(links(), (Links{{5, 0}, {3, 1}, {7, 3}}));
  t.Add(9, Resolve(streams, 5, MakeProfile(0, 10)));
  EXPECT_EQ(links(), (Links{{5, 0}, {3, 1}, {9, 2}, {7, 3}}));
  EXPECT_TRUE(t.CheckInvariants());
}

TEST(RoutingTable, BucketForPartitionsByStream) {
  StreamTable streams;
  Router r(0, &streams);
  RoutingTable& t = r.table();
  t.Add(3, Resolve(streams, 1, MakeProfile(0, 10)));
  const StreamId s = streams.Find("s");
  ASSERT_NE(s, kNoStream);
  ASSERT_NE(t.BucketFor(3, s), nullptr);
  EXPECT_EQ(t.BucketFor(3, s)->slots().size(), 1u);
  EXPECT_EQ(streams.Find("other"), kNoStream);
  EXPECT_EQ(t.BucketFor(3, kNoStream), nullptr);
  EXPECT_EQ(t.BucketFor(9, s), nullptr);
  // A datagram of an unindexed stream matches nothing without touching
  // the "s" entries.
  StreamRef other(&streams, "other");
  EXPECT_EQ(t.BucketFor(3, other.id()), nullptr);
  auto other_schema = std::make_shared<Schema>(
      "other", std::vector<AttributeDef>{{"temp", ValueType::kDouble}});
  Datagram d{"other", Tuple(other_schema, {Value(5.0)}, 0), other.id()};
  EXPECT_FALSE(Forward(r, d, 3).has_value());
}

TEST(RoutingTable, MultiStreamProfileHasOneSlotPerStream) {
  StreamTable streams;
  RoutingTable t(&streams);
  auto p = std::make_shared<Profile>();
  p->AddStream("a", {"x"});
  p->AddStream("b");
  t.Add(3, Resolve(streams, 7, p));
  EXPECT_EQ(t.TotalEntries(), 1u);
  EXPECT_EQ(t.TotalIndexedSlots(), 2u);
  const StreamId a = streams.Find("a");
  const StreamId b = streams.Find("b");
  ASSERT_NE(t.BucketFor(3, a), nullptr);
  ASSERT_NE(t.BucketFor(3, b), nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(streams.live(), 2u);
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_TRUE(t.Remove(3, *Resolve(streams, 7, p)));
  EXPECT_EQ(t.TotalIndexedSlots(), 0u);
  EXPECT_EQ(t.BucketFor(3, a), nullptr);
  EXPECT_EQ(t.BucketFor(3, b), nullptr);
  // The emptied buckets released their stream ids.
  EXPECT_EQ(streams.live(), 0u);
}

TEST(RoutingTable, UnionMaskSpansSlotsAndTracksChurn) {
  StreamTable streams;
  RoutingTable t(&streams);
  const ProfilePtr hum_only = MakeProfile(0, 10, {"hum"});
  const ProfilePtr all = MakeProfile(0, 10);
  t.Add(3, Resolve(streams, 1, MakeProfile(0, 10, {"temp"})));
  t.Add(3, Resolve(streams, 2, hum_only));
  const StreamId s = streams.Find("s");
  const AttrMask temp = streams.MaskOf(s, {"temp"});
  const AttrMask hum = streams.MaskOf(s, {"hum"});
  ASSERT_NE(temp, hum);
  const auto* bucket = t.BucketFor(3, s);
  ASSERT_NE(bucket, nullptr);
  // The union spans every slot.
  EXPECT_EQ(bucket->UnionMask(), temp | hum);
  // A profile needing every attribute poisons the union (recomputed after
  // an add), which disables projection.
  t.Add(3, Resolve(streams, 4, all));
  bucket = t.BucketFor(3, s);
  ASSERT_NE(bucket, nullptr);
  EXPECT_NE(bucket->UnionMask() & kAllAttributes, 0u);
  // Removing it restores the attribute union (recomputed after a remove).
  EXPECT_TRUE(t.Remove(3, *Resolve(streams, 4, all)));
  bucket = t.BucketFor(3, s);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->UnionMask(), temp | hum);
  EXPECT_TRUE(t.Remove(3, *Resolve(streams, 2, hum_only)));
  EXPECT_EQ(t.BucketFor(3, s)->UnionMask(), temp);
}

TEST(RoutingTable, IndexSurvivesChurn) {
  StreamTable streams;
  RoutingTable t(&streams);
  std::vector<ProfilePtr> profiles;  // index: id - 1
  for (ProfileId id = 1; id <= 40; ++id) {
    profiles.push_back(MakeProfile(static_cast<double>(id % 7), 30));
    t.Add(static_cast<NodeId>(id % 4), Resolve(streams, id, profiles.back()));
  }
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_EQ(t.TotalIndexedSlots(), t.TotalEntries());
  for (ProfileId id = 1; id <= 40; id += 2) {
    EXPECT_TRUE(t.Remove(static_cast<NodeId>(id % 4),
                         *Resolve(streams, id, profiles[id - 1])));
  }
  EXPECT_TRUE(t.CheckInvariants());
  EXPECT_EQ(t.TotalIndexedSlots(), t.TotalEntries());
  EXPECT_EQ(t.TotalEntries(), 20u);
}

TEST(Router, DeliverLocalAppliesExactProjection) {
  StreamTable streams;
  Router r(0, &streams);
  std::vector<Tuple> got;
  r.AddLocal(1, MakeProfile(0, 40, {"hum"}),
             [&](const std::string&, const Tuple& t) { got.push_back(t); });
  r.DeliverLocal(MakeDatagram(streams, 10, 77));
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].num_values(), 1u);
  EXPECT_DOUBLE_EQ(got[0].value(0).AsDouble(), 77.0);
}

TEST(Router, DeliverLocalSkipsNonMatching) {
  StreamTable streams;
  Router r(0, &streams);
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 10),
             [&](const std::string&, const Tuple&) { ++hits; });
  EXPECT_EQ(r.DeliverLocal(MakeDatagram(streams, 50)), 0u);
  EXPECT_EQ(hits, 0);
}

TEST(Router, RemoveLocalStopsDelivery) {
  StreamTable streams;
  Router r(0, &streams);
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 40),
             [&](const std::string&, const Tuple&) { ++hits; });
  EXPECT_TRUE(r.RemoveLocal(1));
  EXPECT_FALSE(r.RemoveLocal(1));
  r.DeliverLocal(MakeDatagram(streams, 10));
  EXPECT_EQ(hits, 0);
}

TEST(Router, DecideForwardNoMatchIsNullopt) {
  StreamTable streams;
  Router r(0, &streams);
  r.table().Add(2, Resolve(streams, 1, MakeProfile(0, 10)));
  EXPECT_FALSE(Forward(r, MakeDatagram(streams, 50), 2).has_value());
  EXPECT_FALSE(Forward(r, MakeDatagram(streams, 5), 9).has_value());
}

TEST(Router, DecideForwardProjectsToUnionOfNeeds) {
  StreamTable streams;
  Router r(0, &streams);
  r.table().Add(2, Resolve(streams, 1, MakeProfile(0, 20, {"temp"})));
  r.table().Add(2, Resolve(streams, 2, MakeProfile(10, 30, {"hum"})));
  // Datagram at 15 matches both: union {temp, hum} = identity here.
  auto out = Forward(r, MakeDatagram(streams, 15), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 2u);
  // Datagram at 5 matches only the temp profile: projected to {temp}.
  out = Forward(r, MakeDatagram(streams, 5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 1u);
  EXPECT_EQ(out->tuple.schema()->attribute(0).name, "temp");
}

TEST(Router, DecideForwardWithoutEarlyProjectionKeepsWholeDatagram) {
  StreamTable streams;
  Router r(0, &streams);
  r.table().Add(2, Resolve(streams, 1, MakeProfile(0, 20, {"temp"})));
  auto out = Forward(r, MakeDatagram(streams, 5), 2, false);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 2u);
}

TEST(Router, AllAttributeProfileDisablesProjection) {
  StreamTable streams;
  Router r(0, &streams);
  // Entry 1 wants all attributes.
  r.table().Add(2, Resolve(streams, 1, MakeProfile(0, 20)));
  r.table().Add(2, Resolve(streams, 2, MakeProfile(0, 20, {"temp"})));
  auto out = Forward(r, MakeDatagram(streams, 5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 2u);
}

TEST(Router, DecideForwardTracksTableMutations) {
  StreamTable streams;
  Router r(0, &streams);
  r.table().Add(2, Resolve(streams, 1, MakeProfile(0, 20, {"temp"})));
  auto out = Forward(r, MakeDatagram(streams, 5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 1u);
  // Adding a hum-projecting profile widens the all-match union.
  const ProfilePtr hum = MakeProfile(0, 20, {"hum"});
  r.table().Add(2, Resolve(streams, 2, hum));
  out = Forward(r, MakeDatagram(streams, 5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 2u);
  // Removing it narrows the union again (invalidation on Remove).
  EXPECT_TRUE(r.table().Remove(2, *Resolve(streams, 2, hum)));
  out = Forward(r, MakeDatagram(streams, 5), 2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tuple.num_values(), 1u);
  EXPECT_EQ(out->tuple.schema()->attribute(0).name, "temp");
}

TEST(Router, DeliverLocalIgnoresOtherStreams) {
  StreamTable streams;
  Router r(0, &streams);
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 40),
             [&](const std::string&, const Tuple&) { ++hits; });
  StreamRef other(&streams, "other");
  auto other_schema = std::make_shared<Schema>(
      "other", std::vector<AttributeDef>{{"temp", ValueType::kDouble}});
  Datagram d{"other", Tuple(other_schema, {Value(5.0)}, 0), other.id()};
  EXPECT_EQ(r.DeliverLocal(d), 0u);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(r.DeliverLocal(MakeDatagram(streams, 10)), 1u);
  EXPECT_EQ(hits, 1);
}

// A node with local subscribers of a stream but no bucket for it still
// delivers, and its record keeps the stream's id only while either holds
// the stream.
TEST(Router, LocalSubscribersWithoutBucketDeliver) {
  StreamTable streams;
  Router r(0, &streams);
  int hits = 0;
  r.AddLocal(1, MakeProfile(0, 40),
             [&](const std::string&, const Tuple&) { ++hits; });
  const StreamId s = streams.Find("s");
  ASSERT_NE(s, kNoStream);
  EXPECT_TRUE(r.table().BucketsOf(s).empty());
  EXPECT_EQ(r.DeliverLocal(MakeDatagram(streams, 10)), 1u);
  EXPECT_EQ(hits, 1);
  ASSERT_TRUE(r.RemoveLocal(1));
  EXPECT_FALSE(streams.referenced(s));
  EXPECT_EQ(r.DeliverLocal(Datagram{"s", MakeDatagram(streams, 10).tuple, s}),
            0u);

  // With a bucket as well, the id stays until both are gone.
  const ProfilePtr routed = MakeProfile(0, 40);
  r.AddLocal(2, MakeProfile(0, 40),
             [&](const std::string&, const Tuple&) { ++hits; });
  r.table().Add(3, Resolve(streams, 7, routed));
  const StreamId again = streams.Find("s");
  ASSERT_TRUE(r.RemoveLocal(2));
  EXPECT_TRUE(streams.referenced(again));
  EXPECT_TRUE(r.table().CheckInvariants());
  ASSERT_TRUE(r.table().Remove(3, *Resolve(streams, 7, routed)));
  EXPECT_FALSE(streams.referenced(again));
  EXPECT_EQ(streams.live(), 0u);
}

// A bucket toggles between filter-free (every slot covers every datagram,
// so no matcher runs) and filtered as whole-stream and filtered entries
// come and go. Throughout, DecideForward equals the Profile::Covers walk
// slot by slot, projection union included, and a filter-free bucket never
// compiles a matcher.
TEST(Router, FilterFreeBucketsForwardWithoutMatcher) {
  constexpr NodeId kLink = 3;
  Rng rng(0xB0C4E7);
  StreamTable streams;
  Router r(0, &streams);
  MetricsRegistry metrics;
  r.SetTelemetry(&metrics);
  const Counter* compiles = metrics.GetCounter("cbn.matcher_compiles");
  std::vector<std::pair<ProfileId, ProfilePtr>> live;
  ProfileId next_id = 1;
  auto whole = [](std::vector<std::string> projection) {
    auto p = std::make_shared<Profile>();
    p->AddStream("s", std::move(projection));
    return ProfilePtr(p);
  };
  // A whole-stream subscription alone forwards with no compile.
  live.emplace_back(next_id, whole({"temp"}));
  r.table().Add(kLink, Resolve(streams, next_id++, live.back().second));
  ASSERT_TRUE(Forward(r, MakeDatagram(streams, 99), kLink).has_value());
  EXPECT_EQ(compiles->value(), 0u);

  // Phases of 25 steps alternate: one adds any kind of entry, the next
  // adds only whole-stream ones and removes filtered ones first, draining
  // the bucket back to filter-free.
  int toggles = 0;
  bool was_filtered = false;
  for (int step = 0; step < 200; ++step) {
    const bool draining = (step / 25) % 2 == 1;
    if (live.empty() || rng.NextBounded(2) == 0) {
      const uint64_t kind = rng.NextBounded(draining ? 2 : 4);
      ProfilePtr p = kind == 0   ? whole({})
                     : kind == 1 ? whole({"hum"})
                     : kind == 2 ? MakeProfile(0, 20, {"temp"})
                                 : MakeProfile(10, 30, {"hum"});
      r.table().Add(kLink, Resolve(streams, next_id, p));
      live.emplace_back(next_id++, std::move(p));
    } else {
      size_t victim = rng.NextBounded(live.size());
      for (size_t i = 0; draining && i < live.size(); ++i) {
        if (!live[i].second->filters().empty()) victim = i;
      }
      ASSERT_TRUE(
          r.table().Remove(
              kLink,
              *Resolve(streams, live[victim].first, live[victim].second)));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_TRUE(r.table().CheckInvariants()) << "step " << step;
    const RoutingTable::StreamBucket* bucket =
        r.table().BucketFor(kLink, streams.Find("s"));
    ASSERT_EQ(bucket == nullptr, live.empty());
    if (bucket == nullptr) continue;
    size_t filtered = 0;
    for (const auto& [id, p] : live) filtered += p->filters().empty() ? 0 : 1;
    ASSERT_EQ(bucket->filtered(), filtered) << "step " << step;
    if ((filtered > 0) != was_filtered) ++toggles;
    was_filtered = filtered > 0;
    const uint64_t compiles_before = compiles->value();
    for (double temp : {-5.0, 5.0, 15.0, 25.0, 35.0}) {
      const Datagram d = MakeDatagram(streams, temp, temp + 1);
      AttrMask needed = 0;
      bool any = false;
      for (const auto& slot : bucket->slots()) {
        if (!slot.profile().Covers(d)) continue;
        any = true;
        needed |= slot.required;
      }
      const std::optional<Datagram> got = Forward(r, d, kLink);
      ASSERT_EQ(got.has_value(), any) << "step " << step << " temp " << temp;
      if (!any) continue;
      Tuple scratch;
      ProjectionCache reference;
      const Tuple& want = reference.Project(
          d.tuple, needed, streams.attributes(d.stream_id), &scratch);
      EXPECT_EQ(got->tuple, want) << "step " << step << " temp " << temp;
    }
    if (filtered == 0) {
      EXPECT_EQ(compiles->value(), compiles_before) << "step " << step;
    }
  }
  EXPECT_GE(toggles, 4);
}

// A stream's local subscribers toggle between filter-free (each covers
// every datagram, so no matcher runs) and filtered as whole-stream and
// filtered subscribers come and go, some with a target. Throughout,
// DeliverLocal hands each subscriber the Profile::Covers walk says covers a
// datagram its projection onto P or its target's tuple, in subscription
// order, and a filter-free stream never compiles a matcher.
TEST(Router, FilterFreeLocalsDeliverWithoutMatcher) {
  Rng rng(0x10CA15);
  StreamTable streams;
  Router r(0, &streams);
  MetricsRegistry metrics;
  r.SetTelemetry(&metrics);
  const Counter* compiles = metrics.GetCounter("cbn.matcher_compiles");
  struct Local {
    ProfileId id;
    ProfilePtr profile;
    std::shared_ptr<const TupleTarget> target;
  };
  std::vector<Local> live;
  std::vector<std::pair<ProfileId, Tuple>> got;
  std::vector<std::string> got_streams;
  ProfileId next_id = 1;
  auto whole = [](std::vector<std::string> projection) {
    auto p = std::make_shared<Profile>();
    p->AddStream("s", std::move(projection));
    return ProfilePtr(p);
  };
  // Takes temp as "t".
  const auto renamed = std::make_shared<const TupleTarget>(TupleTarget{
      std::make_shared<Schema>(
          "user", std::vector<AttributeDef>{{"t", ValueType::kDouble}}),
      {"temp"}});
  auto subscribe = [&](ProfilePtr p, std::shared_ptr<const TupleTarget> t) {
    const ProfileId id = next_id++;
    r.AddLocal(
        id, p,
        [&got, &got_streams, id](const std::string& stream, const Tuple& tuple) {
          got.emplace_back(id, tuple);
          got_streams.push_back(stream);
        },
        t);
    live.push_back(Local{id, std::move(p), std::move(t)});
  };
  // A whole-stream subscriber alone takes every datagram with no compile.
  subscribe(whole({"temp"}), nullptr);
  EXPECT_EQ(r.DeliverLocal(MakeDatagram(streams, 99)), 1u);
  EXPECT_EQ(compiles->value(), 0u);

  // Phases of 25 steps alternate: one adds any kind of subscriber, the next
  // adds only whole-stream ones and removes filtered ones first, draining
  // the stream back to filter-free.
  int toggles = 0;
  bool was_filtered = false;
  for (int step = 0; step < 200; ++step) {
    const bool draining = (step / 25) % 2 == 1;
    if (live.empty() || rng.NextBounded(2) == 0) {
      const uint64_t kind = rng.NextBounded(draining ? 3 : 5);
      if (kind == 0) subscribe(whole({}), nullptr);
      if (kind == 1) subscribe(whole({"hum"}), nullptr);
      if (kind == 2) subscribe(whole({"temp"}), renamed);
      if (kind == 3) subscribe(MakeProfile(0, 20, {"temp"}), renamed);
      if (kind == 4) subscribe(MakeProfile(10, 30, {"hum"}), nullptr);
    } else {
      size_t victim = rng.NextBounded(live.size());
      for (size_t i = 0; draining && i < live.size(); ++i) {
        if (!live[i].profile->filters().empty()) victim = i;
      }
      ASSERT_TRUE(r.RemoveLocal(live[victim].id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    size_t filtered = 0;
    for (const Local& l : live) filtered += l.profile->filters().empty() ? 0 : 1;
    if (const auto* routes = r.table().RoutesOf(streams.Find("s"))) {
      ASSERT_EQ(routes->local.filtered, filtered) << "step " << step;
      ASSERT_EQ(routes->local.subscribers.size(), live.size());
    }
    if ((filtered > 0) != was_filtered) ++toggles;
    was_filtered = filtered > 0;
    const uint64_t compiles_before = compiles->value();
    for (double temp : {-5.0, 5.0, 15.0, 25.0, 35.0}) {
      const Datagram d = MakeDatagram(streams, temp, temp + 1);
      std::vector<std::pair<ProfileId, Tuple>> want;
      std::vector<std::string> want_streams;
      for (const Local& l : live) {
        if (!l.profile->Covers(d)) continue;
        Tuple scratch;
        ProjectionCache reference;
        if (l.target != nullptr) {
          want.emplace_back(l.id, *reference.Map(d.tuple, *l.target, &scratch));
          want_streams.push_back("user");
          continue;
        }
        want.emplace_back(
            l.id, reference.Project(
                      d.tuple,
                      streams.MaskOf(d.stream_id, l.profile->ProjectionOf("s")),
                      streams.attributes(d.stream_id), &scratch));
        want_streams.push_back("s");
      }
      got.clear();
      got_streams.clear();
      EXPECT_EQ(r.DeliverLocal(d), want.size())
          << "step " << step << " temp " << temp;
      EXPECT_EQ(got, want) << "step " << step << " temp " << temp;
      EXPECT_EQ(got_streams, want_streams) << "step " << step;
    }
    if (filtered == 0) {
      EXPECT_EQ(compiles->value(), compiles_before) << "step " << step;
    }
  }
  EXPECT_GE(toggles, 4);
}

TEST(ProjectionCache, IdentityWhenAllAttributesSelected) {
  StreamTable streams;
  StreamRef s(&streams, "s");
  ProjectionCache cache;
  Datagram d = MakeDatagram(streams, 1, 2);
  Tuple scratch;
  const Tuple& out =
      cache.Project(d.tuple, streams.MaskOf(s.id(), {"temp", "hum"}),
                    streams.attributes(s.id()), &scratch);
  EXPECT_EQ(out.num_values(), 2u);
  // Identity hands back the incoming tuple: same values, same schema.
  EXPECT_EQ(&out, &d.tuple);
  EXPECT_EQ(out.schema().get(), d.tuple.schema().get());
}

TEST(ProjectionCache, SkipsUnknownAttributes) {
  StreamTable streams;
  StreamRef s(&streams, "s");
  ProjectionCache cache;
  Datagram d = MakeDatagram(streams, 1, 2);
  Tuple scratch;
  const Tuple& out =
      cache.Project(d.tuple, streams.MaskOf(s.id(), {"temp", "not_there"}),
                    streams.attributes(s.id()), &scratch);
  ASSERT_EQ(out.num_values(), 1u);
  EXPECT_EQ(out.schema()->attribute(0).name, "temp");
}

TEST(ProjectionCache, ReusesPlansAcrossCalls) {
  StreamTable streams;
  StreamRef s(&streams, "s");
  ProjectionCache cache;
  const AttrMask temp = streams.MaskOf(s.id(), {"temp"});
  Datagram d1 = MakeDatagram(streams, 1, 2);
  Datagram d2 = MakeDatagram(streams, 3, 4);
  Tuple t1, t2;
  const Tuple& o1 =
      cache.Project(d1.tuple, temp, streams.attributes(s.id()), &t1);
  const Tuple& o2 =
      cache.Project(d2.tuple, temp, streams.attributes(s.id()), &t2);
  // Same source schema + mask => one plan, one projected schema instance.
  EXPECT_EQ(o1.schema().get(), o2.schema().get());
  EXPECT_EQ(cache.size(), 1u);
  // Alternating masks each find their own plan, whichever was used last.
  const AttrMask hum = streams.MaskOf(s.id(), {"hum"});
  Tuple t3, t4;
  const Tuple& o3 =
      cache.Project(d1.tuple, hum, streams.attributes(s.id()), &t3);
  const Tuple& o4 =
      cache.Project(d2.tuple, temp, streams.attributes(s.id()), &t4);
  ASSERT_EQ(o3.num_values(), 1u);
  EXPECT_EQ(o3.schema()->attribute(0).name, "hum");
  EXPECT_DOUBLE_EQ(o3.value(0).AsDouble(), 2.0);
  EXPECT_EQ(o4.schema().get(), o1.schema().get());
  EXPECT_DOUBLE_EQ(o4.value(0).AsDouble(), 3.0);
  EXPECT_EQ(cache.size(), 2u);
}

// A target takes the incoming columns it names, in its own order, and
// drops the rest.
TEST(ProjectionCache, TargetReordersAndDropsExtras) {
  auto in_schema = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"a", ValueType::kInt64},
                                     {"b", ValueType::kDouble}});
  const TupleTarget target{
      std::make_shared<Schema>(
          "S", std::vector<AttributeDef>{{"b", ValueType::kDouble}}),
      {"b"}};
  ProjectionCache cache;
  Tuple scratch;
  const Tuple* out = cache.Map(
      Tuple(in_schema, {Value(int64_t{1}), Value(2.5)}, 42), target, &scratch);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->num_values(), 1u);
  EXPECT_DOUBLE_EQ(out->value(0).AsDouble(), 2.5);
  EXPECT_EQ(out->timestamp(), 42);
}

TEST(ProjectionCache, TargetDropsTuplesMissingTargetAttributes) {
  auto in_schema = std::make_shared<Schema>(
      "S", std::vector<AttributeDef>{{"a", ValueType::kInt64},
                                     {"b", ValueType::kDouble}});
  const TupleTarget target{
      std::make_shared<Schema>(
          "S", std::vector<AttributeDef>{{"z", ValueType::kInt64}}),
      {"z"}};
  ProjectionCache cache;
  Tuple scratch;
  EXPECT_EQ(cache.Map(Tuple(in_schema, {Value(int64_t{1}), Value(1.0)}, 0),
                      target, &scratch),
            nullptr);
  EXPECT_EQ(cache.size(), 1u);  // the drop is a cached plan too
}

// A target whose schema equals the incoming one, column for column, hands
// back the incoming tuple itself; a different stream name or column order
// is a different layout and takes one copy.
TEST(ProjectionCache, TargetWithTheIncomingLayoutReturnsTheInputItself) {
  StreamTable streams;
  StreamRef s(&streams, "s");
  const Datagram d = MakeDatagram(streams, 1, 2);
  ProjectionCache cache;
  Tuple scratch;
  const TupleTarget same{
      std::make_shared<Schema>(*SensorSchema()), {"temp", "hum"}};
  EXPECT_EQ(cache.Map(d.tuple, same, &scratch), &d.tuple);
  EXPECT_EQ(scratch.schema(), nullptr);  // nothing was built

  const TupleTarget renamed_stream{
      std::make_shared<Schema>("user", SensorSchema()->attributes()),
      {"temp", "hum"}};
  const Tuple* out = cache.Map(d.tuple, renamed_stream, &scratch);
  ASSERT_EQ(out, &scratch);
  EXPECT_EQ(out->schema()->stream_name(), "user");
  EXPECT_EQ(out->values(), d.tuple.values());

  const TupleTarget swapped{
      std::make_shared<Schema>(*SensorSchema()), {"hum", "temp"}};
  out = cache.Map(d.tuple, swapped, &scratch);
  ASSERT_EQ(out, &scratch);
  EXPECT_DOUBLE_EQ(out->value(0).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(out->value(1).AsDouble(), 1.0);
  EXPECT_EQ(cache.size(), 3u);
}

// Target columns take their own names, and a name the target repeats takes
// the incoming columns of that name in turn: an aggregate may repeat an
// output name (SELECT COUNT(*) AS n, MAX(x) AS n), and its members take the
// representative's columns positionally.
TEST(ProjectionCache, TargetRenamesAndTakesOneColumnTwice) {
  auto in_schema = std::make_shared<Schema>(
      "rep", std::vector<AttributeDef>{{"k", ValueType::kInt64},
                                       {"n", ValueType::kInt64}});
  // A user may select one column under two names.
  const TupleTarget twice{
      std::make_shared<Schema>(
          "user", std::vector<AttributeDef>{{"x", ValueType::kInt64},
                                            {"y", ValueType::kInt64}}),
      {"k", "k"}};
  ProjectionCache cache;
  Tuple scratch;
  const Tuple* out = cache.Map(
      Tuple(in_schema, {Value(int64_t{7}), Value(int64_t{1})}, 5), twice,
      &scratch);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->schema(), twice.schema);
  EXPECT_EQ(out->value(0).AsInt64(), 7);
  EXPECT_EQ(out->value(1).AsInt64(), 7);
  EXPECT_EQ(out->timestamp(), 5);
}

TEST(StreamIds, TableReusesFreedIdsAndBoundsDictionaries) {
  StreamTable streams;
  const StreamId a = streams.Acquire("a");
  EXPECT_EQ(streams.Acquire("a"), a);  // one id per name, two references
  streams.Release(a);
  EXPECT_EQ(streams.live(), 1u);
  streams.Release(a);
  EXPECT_EQ(streams.live(), 0u);
  // A freed id keeps its name until another stream needs the slot.
  EXPECT_EQ(streams.Find("a"), a);
  const StreamId b = streams.Acquire("b");
  EXPECT_EQ(b, a);
  EXPECT_EQ(streams.Find("a"), kNoStream);
  EXPECT_EQ(streams.Name(b), "b");
  EXPECT_EQ(streams.size(), 1u);

  // Dictionary bits are stable; names past the dictionary's capacity
  // widen a set to all attributes instead of dropping them.
  EXPECT_EQ(streams.MaskOf(b, {}), kAllAttributes);
  const AttrMask x = streams.MaskOf(b, {"x"});
  EXPECT_EQ(streams.MaskOf(b, {"y", "x"}), x | streams.MaskOf(b, {"y"}));
  for (size_t i = streams.attributes(b).size();
       i < StreamTable::kMaxAttributes; ++i) {
    EXPECT_EQ(streams.MaskOf(b, {StrFormat("f%zu", i)}) & kAllAttributes,
              0u);
  }
  EXPECT_EQ(streams.MaskOf(b, {"x", "one_too_many"}), x | kAllAttributes);
  EXPECT_EQ(streams.MaskOf(b, {"x"}), x);
  streams.Release(b);
}

// Stream ids are reused once a stream has no subscriber left. A stream
// that takes a freed id with a different schema must never reach what the
// old owner left behind: its buckets, compiled-matcher bindings (column
// offsets) or projection plans.
TEST(StreamIds, ReusedIdNeverReachesOldOwner) {
  // Flooded, so a subscription installs its buckets before any publisher
  // of its stream advertises.
  NetworkOptions flooded;
  flooded.advertisement_scoping = false;
  ContentBasedNetwork net(
      DisseminationTree::FromEdges(3, {Edge{0, 1, 1.0}, Edge{1, 2, 1.0}})
          .value(),
      flooded);
  auto a_schema = std::make_shared<Schema>(
      "A", std::vector<AttributeDef>{{"a1", ValueType::kDouble},
                                     {"a2", ValueType::kDouble},
                                     {"a3", ValueType::kDouble}});
  auto b_schema = std::make_shared<Schema>(
      "B", std::vector<AttributeDef>{{"b1", ValueType::kDouble},
                                     {"b2", ValueType::kDouble},
                                     {"b3", ValueType::kDouble}});
  auto range = [](const std::string& stream, const std::string& attr) {
    ConjunctiveClause c;
    c.ConstrainInterval(attr, Interval(0, false, 10, false));
    return Filter(stream, std::move(c));
  };

  // Stream A: project to a1, filter on a2 (column 1).
  std::vector<Tuple> a_got;
  Profile a;
  a.AddStream("A", {"a1"});
  a.AddFilter(range("A", "a2"));
  const ProfileId a_sub = net.Subscribe(
      2, a, [&](const std::string&, const Tuple& t) { a_got.push_back(t); });
  auto a_pub = net.Advertise(0, "A");
  net.Publish(a_pub, Tuple(a_schema, {Value(1.0), Value(5.0), Value(9.0)}, 0));
  ASSERT_EQ(a_got.size(), 1u);
  const StreamId a_id = net.streams().Find("A");
  ASSERT_NE(a_id, kNoStream);
  ASSERT_GT(net.CachedProjectionPlans(), 0u);

  // Drop A's subscription and publisher: nothing holds its id any more.
  ASSERT_TRUE(net.Unsubscribe(a_sub));
  a_pub = ContentBasedNetwork::Publisher();
  EXPECT_EQ(net.streams().live(), 0u);
  EXPECT_EQ(net.CachedProjectionPlans(), 0u);

  // Stream B takes the freed id: project to b2, filter on b1 (column 0).
  std::vector<std::pair<std::string, Tuple>> b_got;
  Profile b;
  b.AddStream("B", {"b2"});
  b.AddFilter(range("B", "b1"));
  net.Subscribe(2, b, [&](const std::string& stream, const Tuple& t) {
    b_got.emplace_back(stream, t);
  });
  ASSERT_EQ(net.streams().Find("B"), a_id) << "the freed id was not reused";
  EXPECT_EQ(net.streams().Find("A"), kNoStream);
  const RoutingTable::StreamBucket* bucket =
      net.router(0).table().BucketFor(1, a_id);
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->slots().size(), 1u);
  EXPECT_TRUE(bucket->slots()[0].profile().WantsStream("B"));

  // b1 = 5 passes B's filter; A's stale binding (a2 at column 1) would
  // have read b2 = 50 and dropped it.
  auto b_pub = net.Advertise(0, "B");
  net.Publish(b_pub, Tuple(b_schema, {Value(5.0), Value(50.0), Value(7.0)}, 1));
  // b1 = 50 fails B's filter; A's binding would have read b2 = 8 and
  // passed it.
  net.Publish(b_pub, Tuple(b_schema, {Value(50.0), Value(8.0), Value(7.0)}, 2));
  ASSERT_EQ(b_got.size(), 1u);
  EXPECT_EQ(b_got[0].first, "B");
  const Tuple& got = b_got[0].second;
  ASSERT_EQ(got.num_values(), 1u);
  EXPECT_EQ(got.schema()->stream_name(), "B");
  EXPECT_EQ(got.schema()->attribute(0).name, "b2");
  EXPECT_DOUBLE_EQ(got.value(0).AsDouble(), 50.0);

  // A, published again with no subscriber, reaches neither subscriber.
  a_pub = net.Advertise(0, "A");
  EXPECT_NE(net.streams().Find("A"), a_id);
  net.Publish(a_pub, Tuple(a_schema, {Value(1.0), Value(5.0), Value(9.0)}, 3));
  EXPECT_EQ(a_got.size(), 1u);
  EXPECT_EQ(b_got.size(), 1u);
  EXPECT_EQ(net.streams().live(), 2u);
  // The per-stream ledger followed the names, not the reused id.
  auto published = [&net](const std::string& stream) {
    const Counter* c = net.metrics().FindCounter(
        MetricsRegistry::LabeledName("cbn.published", "stream", stream));
    return c == nullptr ? uint64_t{0} : c->value();
  };
  EXPECT_EQ(published("A"), 2u);
  EXPECT_EQ(published("B"), 2u);
}

}  // namespace
}  // namespace cosmos
