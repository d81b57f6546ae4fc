// Online throughput estimation ("which can be estimated by sampling",
// Section III-C).
//
// The master observes how long each worker took to compute its share every
// iteration and maintains an exponentially-weighted moving average of the
// implied throughput. Feeding these estimates back into scheme construction
// closes the loop the paper leaves to the operator: the code adapts when the
// cluster drifts (a VM slows down, a noisy neighbor appears).
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace hgc {

/// Per-worker EWMA throughput estimator.
class ThroughputEstimator {
 public:
  /// `smoothing` ∈ (0, 1]: weight of the newest observation (1 = no memory).
  /// `initial` seeds the estimates (e.g. uniform when nothing is known).
  ThroughputEstimator(Throughputs initial, double smoothing);

  /// Record that worker w processed `work_fraction` of the dataset in
  /// `seconds` of pure compute. Ignores non-positive or non-finite inputs
  /// (faulted workers produce +inf durations).
  void observe(WorkerId w, double work_fraction, double seconds);

  const Throughputs& estimates() const { return estimates_; }
  std::size_t num_workers() const { return estimates_.size(); }

  /// Largest relative deviation between the current estimates and `other`
  /// (max_i |e_i − o_i| / o_i); drives "should we re-code?" decisions.
  double relative_deviation(const Throughputs& other) const;

 private:
  Throughputs estimates_;
  std::vector<std::size_t> counts_;
  double smoothing_;
};

}  // namespace hgc
