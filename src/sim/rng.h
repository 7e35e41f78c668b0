// Deterministic pseudo-random number generation for reproducible simulations.
//
// Every stochastic component (workload noise, migration jitter, placement
// tie-breaking) draws from an Rng seeded from the experiment configuration,
// so a run is exactly reproducible from its seed.

#ifndef HYPERTP_SRC_SIM_RNG_H_
#define HYPERTP_SRC_SIM_RNG_H_

#include <cstdint>

namespace hypertp {

// xoshiro256** seeded via splitmix64. Not cryptographic; fast and well mixed.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over the full 64-bit range.
  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0, checked in every build.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi, checked in every build.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double NextDouble();

  // Standard normal (Box-Muller); deterministic per stream.
  double NextGaussian();

  // Returns true with probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Derives an independent child stream; used to give each VM/host its own
  // stream so adding a component does not perturb the others' draws.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_SIM_RNG_H_
