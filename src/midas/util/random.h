#ifndef MIDAS_UTIL_RANDOM_H_
#define MIDAS_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace midas {

/// Deterministic, seedable pseudo-random generator (xoshiro256++). All
/// synthetic data in this repository flows through Rng so that every
/// experiment is reproducible from its seed. Satisfies the C++
/// UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; equal seeds produce equal streams on every
  /// platform.
  explicit Rng(uint64_t seed = 0xC0FFEE);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }

  /// Next raw 64-bit value.
  result_type operator()() { return Next(); }
  uint64_t Next();

  /// Uniform integer in [0, bound). Requires bound > 0. Uses rejection
  /// sampling, so the distribution is exactly uniform.
  uint64_t Uniform(uint64_t bound);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement
  /// (reservoir-free selection sampling; output is sorted).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Forks an independent generator whose stream is decorrelated from this
  /// one; used to give each synthetic web source its own stream so that
  /// generation order does not affect content.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace midas

#endif  // MIDAS_UTIL_RANDOM_H_
