#include "common/random.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

namespace cosmos {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(99);
  const int kBuckets = 10;
  const int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBounded(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NextIntDegenerateRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.NextInt(42, 42), 42);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble(-5.0, 5.0);
    EXPECT_GE(d, -5.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(Rng, NextBoolProbability) {
  Rng rng(17);
  int heads = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.NextBool(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / static_cast<double>(kDraws), 0.3, 0.02);
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(23);
  const int kDraws = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / kDraws;
  double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, WeightedFollowsWeights) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  int counts[3] = {};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextWeighted(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.6, 0.02);
}

TEST(Rng, ForkIsDecorrelatedFromParent) {
  Rng parent(77);
  Rng child = parent.Derive(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForksWithDifferentStreamsDiffer) {
  Rng parent(77);
  Rng a = parent.Derive(1);
  Rng b = parent.Derive(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1(77);
  Rng p2(77);
  Rng a = p1.Derive(5);
  Rng b = p2.Derive(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(SplitMix, AdvancesState) {
  uint64_t s = 1;
  uint64_t v1 = SplitMix64(s);
  uint64_t v2 = SplitMix64(s);
  EXPECT_NE(v1, v2);
}

// ---- Derive: the DST harness depends on these properties ----

// Golden values pin the exact sequences across platforms and compilers:
// a DST seed must reproduce the identical scenario everywhere, or a CI
// failure's `--seed=N` repro would diverge locally.
TEST(Rng, GoldenSequences) {
  Rng r0(0);
  EXPECT_EQ(r0.NextUint64(), 11091344671253066420ull);
  EXPECT_EQ(r0.NextUint64(), 13793997310169335082ull);
  EXPECT_EQ(r0.NextUint64(), 1900383378846508768ull);
  EXPECT_EQ(r0.NextUint64(), 7684712102626143532ull);
  Rng r1(1);
  EXPECT_EQ(r1.NextUint64(), 12966619160104079557ull);
  EXPECT_EQ(r1.NextUint64(), 9600361134598540522ull);
}

TEST(Rng, DeriveGoldenValues) {
  Rng s(42);
  Rng d1 = s.Derive(1);
  EXPECT_EQ(d1.NextUint64(), 10918409916959707638ull);
  EXPECT_EQ(d1.NextUint64(), 10751976195851383956ull);
  Rng d2 = s.Derive(2);
  EXPECT_EQ(d2.NextUint64(), 5011351562892868128ull);
  EXPECT_EQ(d2.NextUint64(), 15426170904703254450ull);
  Rng d3 = s.Derive(3);
  EXPECT_EQ(d3.NextUint64(), 1521852891070688611ull);
  EXPECT_EQ(d3.NextUint64(), 7035243952445240909ull);
  Rng other = Rng(7).Derive(2);
  EXPECT_EQ(other.NextUint64(), 7372961589732782238ull);
  EXPECT_EQ(other.NextUint64(), 14387876585268191371ull);
}

// Derivation is a pure function of (seed, stream): consuming values from
// the parent must not change what a later Derive produces. The scenario
// generator relies on this to regenerate any single concern in isolation.
TEST(Rng, DeriveIsPositionIndependent) {
  Rng fresh(42);
  Rng advanced(42);
  (void)advanced.NextUint64();
  (void)advanced.NextDouble();
  (void)advanced.NextBounded(7);
  Rng a = fresh.Derive(2);
  Rng b = advanced.Derive(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(Rng, DeriveDoesNotAdvanceParent) {
  Rng with_derives(99);
  Rng plain(99);
  (void)with_derives.Derive(1);
  (void)with_derives.Derive(2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(with_derives.NextUint64(), plain.NextUint64());
  }
}

// Streams of one seed should look like independent generators: the
// average Hamming distance of paired 64-bit draws is ~32 bits for
// independent uniform values. A shared-state or offset-stream bug drives
// this toward 0.
TEST(Rng, DeriveStreamsAreBitwiseDecorrelated) {
  Rng parent(123);
  Rng a = parent.Derive(1);
  Rng b = parent.Derive(2);
  int64_t total_bits = 0;
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    total_bits += std::popcount(a.NextUint64() ^ b.NextUint64());
  }
  double mean = static_cast<double>(total_bits) / kDraws;
  EXPECT_GT(mean, 30.0);
  EXPECT_LT(mean, 34.0);
}

TEST(Rng, DeriveSameStreamOfDifferentSeedsDiffers) {
  Rng a = Rng(1).Derive(5);
  Rng b = Rng(2).Derive(5);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace cosmos
