// Small descriptive-statistics helpers used by the simulator and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hgc {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm), used to
/// aggregate per-iteration metrics without storing every sample.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  /// Raw second central moment (Welford's M2) — exposed so snapshots can
  /// serialize the exact accumulator state; variance() is derived from it.
  double m2() const { return count_ ? m2_ : 0.0; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

  /// Rebuild an accumulator from serialized state (obs::Snapshot JSON).
  /// The fields are taken verbatim, so read(write(s)) == s to the bit.
  static RunningStats from_parts(std::size_t count, double mean, double m2,
                                 double min, double max);

  /// Exact state equality (the snapshot round-trip contract). Compares the
  /// raw fields with operator== — fine for the finite values stats hold.
  friend bool operator==(const RunningStats& a, const RunningStats& b) {
    return a.count_ == b.count_ && a.mean_ == b.mean_ && a.m2_ == b.m2_ &&
           a.min_ == b.min_ && a.max_ == b.max_;
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming quantile estimator over a fixed-capacity uniform reservoir
/// (Vitter's algorithm R) — the engine's round-latency reporting wants
/// p50/p95/p99 without storing every sample of a long run. Quantiles are
/// exact while count() <= capacity and an unbiased-sample estimate after.
/// Replacement decisions come from an internal splitmix64 stream, so results
/// are deterministic for a given seed and insertion order.
class ReservoirQuantiles {
 public:
  explicit ReservoirQuantiles(std::size_t capacity = 1024,
                              std::uint64_t seed = 0x5eed);

  void add(double x);

  /// Total samples observed (not just those retained).
  std::size_t count() const { return count_; }
  std::size_t capacity() const { return capacity_; }

  /// Linear-interpolated quantile, q in [0, 100]. Requires count() > 0.
  double quantile(double q) const;
  double p50() const { return quantile(50.0); }
  double p95() const { return quantile(95.0); }
  double p99() const { return quantile(99.0); }

  /// The retained sample in insertion/replacement order, and the internal
  /// selection-stream state — together with count() and capacity() this is
  /// the complete serializable state of the estimator.
  const std::vector<double>& retained() const { return sample_; }
  std::uint64_t rng_state() const { return state_; }

  /// Rebuild an estimator from serialized state (obs::Snapshot JSON); the
  /// sample must fit the capacity and count must cover the sample.
  static ReservoirQuantiles from_parts(std::size_t capacity,
                                       std::uint64_t state, std::size_t count,
                                       std::vector<double> sample);

  /// Exact state equality (the snapshot round-trip contract).
  friend bool operator==(const ReservoirQuantiles& a,
                         const ReservoirQuantiles& b) {
    return a.capacity_ == b.capacity_ && a.count_ == b.count_ &&
           a.state_ == b.state_ && a.sample_ == b.sample_;
  }

  /// Merge another reservoir into this one (parallel reduction).
  ///
  /// Determinism note: the result is a pure function of the two operands
  /// (the selection stream is seeded from both reservoirs' states and
  /// counts), so a merge tree evaluated in a fixed order yields bit-identical
  /// results regardless of which thread produced each partial. count() is
  /// exact. The retained sample is a weight-equalized draw from the two
  /// samples — while both operands still retain their full streams (and
  /// they fit) it equals the concatenated sequential stream; once either
  /// side has saturated it is an unbiased estimate, not the byte-identical
  /// reservoir a single sequential pass would have kept.
  void merge(const ReservoirQuantiles& other);

 private:
  std::uint64_t next_u64();

  std::vector<double> sample_;
  std::size_t capacity_;
  std::size_t count_ = 0;
  std::uint64_t state_;
};

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Unbiased sample standard deviation; 0 with fewer than two samples.
double stddev(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0, 100]. Copies and sorts.
double percentile(std::span<const double> xs, double q);

double median(std::span<const double> xs);

/// Sum with Kahan compensation (iteration-time totals accumulate millions of
/// small terms in long sweeps).
double kahan_sum(std::span<const double> xs);

}  // namespace hgc
