#ifndef COSMOS_COMMON_RANDOM_H_
#define COSMOS_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cosmos {

// SplitMix64: used to expand a user seed into internal generator state.
// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
// generators", OOPSLA 2014.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Deterministic, seedable pseudo-random generator (xoshiro256**).
// All experiment repetitions derive their generators from explicit seeds so
// every benchmark table in EXPERIMENTS.md is exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5EED5EED5EEDULL);

  // Uniform in [0, 2^64).
  uint64_t NextUint64();

  // Uniform in [0, bound); bound must be > 0. Uses rejection sampling to
  // avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p = 0.5);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Requires a non-empty vector with a positive total weight.
  size_t NextWeighted(const std::vector<double>& weights);

  // Derives an independent generator for stream `stream` of this seed. The
  // derivation is a pure function of (seed, stream) — it does not depend on
  // how many values this generator has produced — so a scenario generator
  // can hand each concern (topology, workload, faults, ...) its own
  // decorrelated stream and reproduce any of them in isolation.
  Rng Derive(uint64_t stream) const;

 private:
  uint64_t s_[4];
  uint64_t seed_;
  bool has_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace cosmos

#endif  // COSMOS_COMMON_RANDOM_H_
