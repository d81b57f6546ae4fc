// Deterministic random-number generation.
//
// All stochastic components (random coding matrix C, runtime fluctuation,
// straggler selection, synthetic datasets) draw from hgc::Rng so that every
// experiment is reproducible from a single seed. Rng::fork() derives an
// independent stream, letting parallel components stay deterministic
// regardless of scheduling.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/error.hpp"

namespace hgc {

/// splitmix64 finalizer: scrambles a 64-bit value into a well-mixed one.
/// Shared by Rng::fork (child-seed derivation) and the lightweight counter
/// streams that cannot afford a full mt19937_64 (e.g. ReservoirQuantiles).
inline std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seeded pseudo-random generator with convenience draws used across the
/// library. Wraps std::mt19937_64; copyable and cheap to fork.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed), seed_(seed) {}

  /// Derive an independent child stream. Successive calls yield distinct
  /// streams; the parent advances deterministically.
  Rng fork() {
    // splitmix64 of the next raw draw decorrelates child seeds even for
    // consecutive parent states.
    return Rng(splitmix64_mix(engine_() + 0x9e3779b97f4a7c15ULL));
  }

  std::uint64_t seed() const { return seed_; }

  /// Uniform double in the open interval (lo, hi); never returns lo exactly,
  /// which Alg.1 relies on (entries of C must be nonzero).
  double uniform(double lo = 0.0, double hi = 1.0) {
    HGC_REQUIRE(lo < hi, "uniform bounds must satisfy lo < hi");
    double u;
    do {
      u = std::uniform_real_distribution<double>(lo, hi)(engine_);
    } while (u == lo);
    return u;
  }

  /// Gaussian draw.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Gaussian truncated to [lo, hi] by resampling (clamps after 64 tries so
  /// pathological bounds cannot hang a simulation).
  double truncated_normal(double mean, double stddev, double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    HGC_REQUIRE(lo <= hi, "uniform_int bounds must satisfy lo <= hi");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw.
  bool bernoulli(double p) {
    HGC_REQUIRE(p >= 0.0 && p <= 1.0, "probability must be in [0,1]");
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Choose `count` distinct indices from [0, n) uniformly at random,
  /// returned ascending. O(count) memory and O(count²) time, so a few
  /// stragglers out of 10,000 workers cost a few draws, not a pool of n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t count);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace hgc
