#include "cbn/covering.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "query/parser.h"

namespace cosmos {
namespace {

ConjunctiveClause Clause(const std::string& text) {
  auto c = ClauseFromExpr(*ParseExpression(text));
  EXPECT_TRUE(c.ok());
  return *c;
}

std::shared_ptr<const Schema> SensorSchema() {
  return std::make_shared<Schema>(
      "s", std::vector<AttributeDef>{{"temp", ValueType::kDouble, -10, 40},
                                     {"hum", ValueType::kDouble, 0, 100}});
}

Datagram MakeDatagram(const std::string& stream, double temp, double hum) {
  return Datagram{stream, Tuple(SensorSchema(), {Value(temp), Value(hum)}, 0)};
}

TEST(FilterCovering, WiderRangeCovers) {
  Filter wide("s", Clause("temp >= 0 AND temp <= 30"));
  Filter narrow("s", Clause("temp >= 10 AND temp <= 20"));
  EXPECT_TRUE(FilterCovers(wide, narrow));
  EXPECT_FALSE(FilterCovers(narrow, wide));
}

TEST(FilterCovering, DifferentStreamsNeverCover) {
  Filter a("s", Clause("temp >= 0"));
  Filter b("t", Clause("temp >= 10"));
  EXPECT_FALSE(FilterCovers(a, b));
}

TEST(ProfileCovering, StreamSetMustContain) {
  Profile wide;
  wide.AddStream("s");
  Profile narrow;
  narrow.AddStream("s");
  narrow.AddStream("t");
  EXPECT_FALSE(ProfileCovers(wide, narrow));
  EXPECT_TRUE(ProfileCovers(narrow, wide));
}

TEST(ProfileCovering, ProjectionMustBeSuperset) {
  Profile wide;
  wide.AddStream("s", {"temp"});
  Profile narrow;
  narrow.AddStream("s", {"temp", "hum"});
  EXPECT_FALSE(ProfileCovers(wide, narrow));
  EXPECT_TRUE(ProfileCovers(narrow, wide));
  Profile all;
  all.AddStream("s", {});
  EXPECT_TRUE(ProfileCovers(all, narrow));
  EXPECT_FALSE(ProfileCovers(narrow, all));
}

TEST(ProfileCovering, UnconditionalStreamCoversFiltered) {
  Profile wide;
  wide.AddStream("s");
  Profile narrow;
  narrow.AddFilter(Filter("s", Clause("temp > 10")));
  EXPECT_TRUE(ProfileCovers(wide, narrow));
  EXPECT_FALSE(ProfileCovers(narrow, wide));
}

TEST(ProfileCovering, EveryNarrowFilterNeedsAWideCover) {
  Profile wide;
  wide.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 30")));
  Profile narrow;
  narrow.AddFilter(Filter("s", Clause("temp >= 5 AND temp <= 10")));
  narrow.AddFilter(Filter("s", Clause("temp >= 20 AND temp <= 25")));
  EXPECT_TRUE(ProfileCovers(wide, narrow));
  narrow.AddFilter(Filter("s", Clause("temp >= 35")));
  EXPECT_FALSE(ProfileCovers(wide, narrow));
}

TEST(ProfileCovering, FilterAttributesCountAsNeeded) {
  // Found by DST seed 313: `wide` projecting exactly `narrow`'s projection
  // is not enough — `narrow`'s filter references "temp", and downstream of
  // links early-projected to `wide`'s required set {hum} that filter can
  // never match again. Coverage must compare required-attribute sets.
  Profile wide;
  wide.AddStream("s", {"hum"});
  Profile narrow;
  narrow.AddStream("s", {"hum"});
  narrow.AddFilter(Filter("s", Clause("temp > 10")));
  EXPECT_FALSE(ProfileCovers(wide, narrow));

  // Widening the projection to include the filtered attribute restores
  // coverage.
  Profile wide_enough;
  wide_enough.AddStream("s", {"hum", "temp"});
  EXPECT_TRUE(ProfileCovers(wide_enough, narrow));
}

TEST(ProfileCovering, ReflexiveOnItself) {
  Profile p;
  p.AddStream("s", {"temp"});
  p.AddFilter(Filter("s", Clause("temp > 10")));
  EXPECT_TRUE(ProfileCovers(p, p));
}

TEST(MergeProfiles, UnionOfStreams) {
  Profile a;
  a.AddStream("s");
  Profile b;
  b.AddStream("t");
  Profile m = MergeProfiles(a, b);
  EXPECT_TRUE(m.WantsStream("s"));
  EXPECT_TRUE(m.WantsStream("t"));
}

TEST(MergeProfiles, CoverageIsUnionOnSamples) {
  Profile a;
  a.AddStream("s", {"temp"});
  a.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 10")));
  Profile b;
  b.AddStream("s", {"hum"});
  b.AddFilter(Filter("s", Clause("temp >= 20 AND temp <= 30")));
  Profile m = MergeProfiles(a, b);
  for (double t = -10; t <= 40; t += 2.5) {
    Datagram d = MakeDatagram("s", t, 50);
    EXPECT_EQ(m.Covers(d), a.Covers(d) || b.Covers(d)) << "temp=" << t;
  }
  EXPECT_TRUE(ProfileCovers(m, a));
  EXPECT_TRUE(ProfileCovers(m, b));
}

TEST(MergeProfiles, CoveredFiltersArePruned) {
  Profile a;
  a.AddFilter(Filter("s", Clause("temp >= 0 AND temp <= 30")));
  Profile b;
  b.AddFilter(Filter("s", Clause("temp >= 10 AND temp <= 20")));
  Profile m = MergeProfiles(a, b);
  EXPECT_EQ(m.filters().size(), 1u);
}

TEST(MergeProfiles, UnconditionalSwallowsFilters) {
  Profile a;
  a.AddStream("s");  // unconditional
  Profile b;
  b.AddFilter(Filter("s", Clause("temp > 10")));
  Profile m = MergeProfiles(a, b);
  EXPECT_TRUE(m.FilterIndicesOf("s").empty());
  EXPECT_TRUE(m.Covers(MakeDatagram("s", -5, 0)));
}

// Randomized: merge coverage equals union coverage; merged profile covers
// both inputs.
class CoveringPropertyTest : public ::testing::TestWithParam<uint64_t> {};

Profile RandomProfile(Rng& rng) {
  Profile p;
  int nfilters = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < nfilters; ++i) {
    ConjunctiveClause c;
    double lo = rng.NextInt(-10, 35);
    double hi = lo + rng.NextInt(0, 20);
    c.ConstrainInterval("temp", Interval(lo, false, hi, false));
    if (rng.NextBool(0.3)) {
      double hlo = rng.NextInt(0, 80);
      c.ConstrainInterval("hum", Interval(hlo, false, hlo + 20, false));
    }
    p.AddFilter(Filter("s", std::move(c)));
  }
  if (rng.NextBool(0.3)) {
    p.AddStream("s", {"temp"});
  }
  return p;
}

TEST_P(CoveringPropertyTest, MergeEqualsUnionOnSamples) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 30; ++iter) {
    Profile a = RandomProfile(rng);
    Profile b = RandomProfile(rng);
    Profile m = MergeProfiles(a, b);
    EXPECT_TRUE(ProfileCovers(m, a));
    EXPECT_TRUE(ProfileCovers(m, b));
    for (double t = -10; t <= 40; t += 5) {
      for (double h = 0; h <= 100; h += 25) {
        Datagram d = MakeDatagram("s", t, h);
        EXPECT_EQ(m.Covers(d), a.Covers(d) || b.Covers(d))
            << "temp=" << t << " hum=" << h;
      }
    }
  }
}

TEST_P(CoveringPropertyTest, ProfileCoversIsSoundOnSamples) {
  Rng rng(GetParam() ^ 0xC0FFEE);
  for (int iter = 0; iter < 30; ++iter) {
    Profile a = RandomProfile(rng);
    Profile b = RandomProfile(rng);
    if (!ProfileCovers(a, b)) continue;
    for (double t = -10; t <= 40; t += 5) {
      for (double h = 0; h <= 100; h += 25) {
        Datagram d = MakeDatagram("s", t, h);
        if (b.Covers(d)) {
          EXPECT_TRUE(a.Covers(d)) << "temp=" << t << " hum=" << h;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoveringPropertyTest,
                         ::testing::Values(7, 14, 21, 28));

}  // namespace
}  // namespace cosmos
