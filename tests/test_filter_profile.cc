#include <gtest/gtest.h>

#include "cbn/covering.h"
#include "cbn/profile.h"
#include "query/parser.h"

namespace cosmos {
namespace {

std::shared_ptr<const Schema> SensorSchema() {
  return std::make_shared<Schema>(
      "sensor", std::vector<AttributeDef>{
                    {"temp", ValueType::kDouble, -10, 40},
                    {"hum", ValueType::kDouble, 0, 100},
                    {"timestamp", ValueType::kInt64},
                });
}

Datagram MakeDatagram(const std::string& stream, double temp, double hum,
                      Timestamp ts = 0) {
  auto schema = SensorSchema();
  return Datagram{stream,
                  Tuple(schema, {Value(temp), Value(hum),
                                 Value(static_cast<int64_t>(ts))},
                        ts)};
}

ConjunctiveClause Clause(const std::string& text) {
  auto c = ClauseFromExpr(*ParseExpression(text));
  EXPECT_TRUE(c.ok());
  return *c;
}

TEST(Filter, CoversRequiresStreamAndConstraints) {
  Filter f("sensor", Clause("temp >= 10 AND temp <= 20"));
  EXPECT_TRUE(f.Covers(MakeDatagram("sensor", 15, 50)));
  EXPECT_FALSE(f.Covers(MakeDatagram("sensor", 25, 50)));
  EXPECT_FALSE(f.Covers(MakeDatagram("other", 15, 50)));
}

TEST(Filter, ResidualConjunctsAreEvaluated) {
  Filter f("sensor", Clause("temp - hum <= 0"));
  EXPECT_TRUE(f.Covers(MakeDatagram("sensor", 10, 50)));
  EXPECT_FALSE(f.Covers(MakeDatagram("sensor", 30, 20)));
}

TEST(Filter, ResidualOnMissingAttributeFailsClosed) {
  Filter f("sensor", Clause("nonexistent > 1"));
  EXPECT_FALSE(f.Covers(MakeDatagram("sensor", 10, 50)));
}

TEST(Filter, ReferencedAttributesIncludeResidualColumns) {
  Filter f("sensor", Clause("temp >= 10 AND temp - hum <= 0"));
  auto attrs = f.ReferencedAttributes();
  EXPECT_EQ(attrs.size(), 2u);
}

TEST(Profile, EmptyProfileCoversNothing) {
  Profile p;
  EXPECT_FALSE(p.Covers(MakeDatagram("sensor", 10, 10)));
}

TEST(Profile, StreamWithoutFilterIsUnconditional) {
  Profile p;
  p.AddStream("sensor");
  EXPECT_TRUE(p.Covers(MakeDatagram("sensor", 99, 99)));
  EXPECT_FALSE(p.Covers(MakeDatagram("other", 1, 1)));
}

TEST(Profile, FilterDisjunction) {
  Profile p;
  p.AddFilter(Filter("sensor", Clause("temp < 0")));
  p.AddFilter(Filter("sensor", Clause("temp > 30")));
  EXPECT_TRUE(p.Covers(MakeDatagram("sensor", -5, 0)));
  EXPECT_TRUE(p.Covers(MakeDatagram("sensor", 35, 0)));
  EXPECT_FALSE(p.Covers(MakeDatagram("sensor", 15, 0)));
}

TEST(Profile, AddFilterRegistersStream) {
  Profile p;
  p.AddFilter(Filter("sensor", Clause("temp > 0")));
  EXPECT_TRUE(p.WantsStream("sensor"));
  EXPECT_EQ(p.streams().size(), 1u);
}

TEST(Profile, ProjectionDefaultsToAll) {
  Profile p;
  p.AddStream("sensor");
  EXPECT_TRUE(p.ProjectionOf("sensor").empty());
}

TEST(Profile, ProjectionUnionAcrossAddStream) {
  Profile p;
  p.AddStream("sensor", {"temp"});
  p.AddStream("sensor", {"hum"});
  auto proj = p.ProjectionOf("sensor");
  EXPECT_EQ(proj.size(), 2u);
}

TEST(Profile, AllAttributesDominatesUnion) {
  Profile p;
  p.AddStream("sensor", {});  // all
  p.AddStream("sensor", {"temp"});
  EXPECT_TRUE(p.ProjectionOf("sensor").empty());
}

// A list projection widened by an all-attributes one becomes "all", so a
// merge covers both inputs whichever order they come in.
TEST(Profile, MergeWidensListToAllAttributes) {
  Profile p;
  p.AddStream("sensor", {"temp"});
  p.AddStream("sensor", {});
  EXPECT_TRUE(p.ProjectionOf("sensor").empty());

  Profile x;
  x.AddStream("sensor", {"temp"});
  x.AddFilter(Filter("sensor", Clause("temp > 10")));
  Profile y;
  y.AddStream("sensor");
  y.AddFilter(Filter("sensor", Clause("hum < 50")));
  for (const Profile& merged : {MergeProfiles(x, y), MergeProfiles(y, x)}) {
    EXPECT_TRUE(merged.ProjectionOf("sensor").empty()) << merged.ToString();
    EXPECT_TRUE(merged.RequiredAttributes("sensor").empty());
    EXPECT_TRUE(ProfileCovers(merged, x)) << merged.ToString();
    EXPECT_TRUE(ProfileCovers(merged, y)) << merged.ToString();
  }
}

// Equality is structural and exact: constants that print alike still
// differ, and filter order and projection lists count.
TEST(Profile, EqualityIsStructural) {
  auto make = [](const std::string& clause,
                 std::vector<std::string> projection) {
    Profile p;
    p.AddStream("sensor", std::move(projection));
    p.AddFilter(Filter("sensor", Clause(clause)));
    return p;
  };
  const Profile a = make("temp >= 456.7894", {"temp"});
  EXPECT_EQ(a, make("temp >= 456.7894", {"temp"}));
  const Profile b = make("temp >= 456.7891", {"temp"});
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == make("temp >= 456.7894", {"temp", "hum"}));
  EXPECT_FALSE(a == make("temp >= 456.7894", {}));

  Profile ab = a;
  ab.AddFilter(Filter("sensor", Clause("hum < 5")));
  Profile ba = make("hum < 5", {"temp"});
  ba.AddFilter(Filter("sensor", Clause("temp >= 456.7894")));
  EXPECT_FALSE(ab == ba);
  EXPECT_FALSE(ab == a);
}

TEST(Profile, RequiredAttributesIncludeFilterColumns) {
  Profile p;
  p.AddStream("sensor", {"hum"});
  p.AddFilter(Filter("sensor", Clause("temp > 10")));
  auto req = p.RequiredAttributes("sensor");
  ASSERT_EQ(req.size(), 2u);  // hum + temp
}

TEST(Profile, RequiredAttributesAllWhenProjectionAll) {
  Profile p;
  p.AddStream("sensor");
  p.AddFilter(Filter("sensor", Clause("temp > 10")));
  EXPECT_TRUE(p.RequiredAttributes("sensor").empty());
}

// RequiredAttributes is the projection, then each filter's referenced
// attributes in filter order, deduplicated, however AddStream and AddFilter
// interleave: a projection widened after filters were added still comes
// before their attributes.
TEST(Profile, RequiredAttributesOrderIsStable) {
  using Names = std::vector<std::string>;
  Profile p;
  p.AddStream("sensor", {"hum", "temp"});
  p.AddFilter(Filter("sensor", Clause("wind > 1 AND temp < 9")));
  EXPECT_EQ(p.RequiredAttributes("sensor"), (Names{"hum", "temp", "wind"}));
  p.AddFilter(Filter("other", Clause("temp > 0")));
  p.AddStream("sensor", {"alt", "hum"});
  EXPECT_EQ(p.RequiredAttributes("sensor"),
            (Names{"hum", "temp", "alt", "wind"}));
  p.AddFilter(Filter("sensor", Clause("rain > 2 AND alt > 0 AND dew < 1")));
  EXPECT_EQ(p.RequiredAttributes("sensor"),
            (Names{"hum", "temp", "alt", "wind", "dew", "rain"}));
  p.AddStream("sensor", {"temp", "gust"});
  EXPECT_EQ(p.RequiredAttributes("sensor"),
            (Names{"hum", "temp", "alt", "gust", "wind", "dew", "rain"}));
  // A stream first requested whole stays whole: nothing is required.
  p.AddStream("other", {"hum"});
  EXPECT_TRUE(p.RequiredAttributes("other").empty());
  EXPECT_TRUE(p.RequiredAttributes("absent").empty());
}

// A copy owns its per-stream state: building on it leaves the original's
// required attributes and filter list as they were.
TEST(Profile, CopyKeepsItsOwnRecord) {
  using Names = std::vector<std::string>;
  Profile original;
  original.AddStream("sensor", {"hum"});
  original.AddFilter(Filter("sensor", Clause("temp > 10")));
  Profile copy = original;
  copy.AddFilter(Filter("sensor", Clause("temp < 0 AND wind > 3")));
  copy.AddStream("sensor", {"alt"});
  EXPECT_EQ(original.RequiredAttributes("sensor"), (Names{"hum", "temp"}));
  EXPECT_EQ(original.FilterIndicesOf("sensor"), (std::vector<size_t>{0}));
  EXPECT_EQ(original.StreamPart("sensor").filters().size(), 1u);
  EXPECT_FALSE(original.Covers(MakeDatagram("sensor", -5, 50)));
  EXPECT_EQ(copy.RequiredAttributes("sensor"),
            (Names{"hum", "alt", "temp", "wind"}));
  EXPECT_EQ(copy.FilterIndicesOf("sensor"), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(copy.StreamPart("sensor").filters().size(), 2u);
}

TEST(Profile, FiltersOfSelectsByStream) {
  Profile p;
  p.AddFilter(Filter("a", Clause("temp > 1")));
  p.AddFilter(Filter("b", Clause("temp > 2")));
  p.AddFilter(Filter("a", Clause("temp > 3")));
  EXPECT_EQ(p.FilterIndicesOf("a").size(), 2u);
  EXPECT_EQ(p.FilterIndicesOf("b").size(), 1u);
  EXPECT_TRUE(p.FilterIndicesOf("c").empty());
}

TEST(Datagram, SerializedSizeIncludesStreamHeader) {
  Datagram d = MakeDatagram("sensor", 1, 2);
  // 2 + 6 (name) + tuple(8 ts + 8 + 8 + 8)
  EXPECT_EQ(d.SerializedSize(), 2u + 6u + 32u);
}

}  // namespace
}  // namespace cosmos
