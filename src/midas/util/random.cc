#include "midas/util/random.h"

#include <cmath>

#include "midas/util/hash.h"

namespace midas {

namespace {
inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(uint64_t seed) {
  // SplitMix64 seeding, per the xoshiro reference implementation: never
  // leaves the state all-zero and decorrelates nearby seeds.
  uint64_t sm = seed;
  for (auto& s : state_) {
    sm += 0x9e3779b97f4a7c15ULL;
    s = HashMix(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::UniformDouble() {
  // 53 random bits scaled to [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  while (u1 <= 1e-300) u1 = UniformDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  std::vector<size_t> out;
  if (k > n) k = n;
  out.reserve(k);
  // Selection sampling (Knuth 3.4.2 Algorithm S): O(n), sorted output.
  size_t remaining = k;
  for (size_t i = 0; i < n && remaining > 0; ++i) {
    if (Uniform(n - i) < remaining) {
      out.push_back(i);
      --remaining;
    }
  }
  return out;
}

Rng Rng::Fork() {
  return Rng(HashCombine(Next(), Next()));
}

}  // namespace midas
