#include "src/sim/rng.h"

#include <cmath>

#include "src/base/logging.h"

namespace hypertp {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  HYPERTP_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  HYPERTP_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(span == 0 ? NextU64() : NextBelow(span));
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (!std::isnan(cached_gaussian_)) {
    const double cached = cached_gaussian_;
    cached_gaussian_ = std::numeric_limits<double>::quiet_NaN();
    return cached;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  // Avoid log(0).
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  return r * std::cos(theta);
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

Rng Rng::Fork() { return Rng(NextU64() ^ 0xD1B54A32D192ED03ull); }

}  // namespace hypertp
