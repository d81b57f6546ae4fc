// Adaptive coded execution: close the estimate → allocate → observe loop.
//
// The paper constructs its code once from sampled throughputs. This module
// adds the operational layer a deployment needs: start from *no knowledge*
// (uniform estimates), observe per-iteration compute times, update an EWMA
// estimator, and periodically rebuild the heterogeneity-aware code when the
// estimates have drifted past a threshold. It is a RoundHook on
// run_experiment, so an adaptive run draws the same conditions as a static
// one; drift (a worker slowing mid-run, e.g. a noisy neighbour) is a
// virtual-time engine::DriftWindow in the run's ScenarioScript.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "cluster/estimator.hpp"
#include "sim/experiment.hpp"

namespace hgc {

/// When and how the master re-codes.
struct AdaptivePolicy {
  /// Re-examine the estimates every this many iterations (0 = never, i.e. a
  /// static scheme built from the initial estimates).
  std::size_t recode_every = 20;
  /// Rebuild only if estimates deviate from the ones the current scheme was
  /// built with by more than this relative amount.
  double recode_threshold = 0.10;
  /// Initial throughput estimates; empty = uniform (cold start).
  Throughputs initial_estimates;
};

/// The adaptive re-coding state of one run over `num_workers` workers: an
/// EWMA ThroughputEstimator fed with every round's compute times, and the
/// per-round times it saw.
class AdaptiveRecoder {
 public:
  AdaptiveRecoder(const AdaptivePolicy& policy, std::size_t num_workers);
  AdaptiveRecoder(const AdaptiveRecoder&) = delete;  // hooks point at it
  AdaptiveRecoder& operator=(const AdaptiveRecoder&) = delete;

  /// The hook to pass to run_experiment; it refers to this recoder, which
  /// must outlive the run.
  RoundHook hook();

  /// Per-round decode times so far; +inf where undecodable.
  const std::vector<double>& iteration_times() const { return times_; }
  /// The master's current belief about worker speeds.
  const Throughputs& estimates() const { return estimator_.estimates(); }

 private:
  std::optional<Throughputs> after_round(const RoundView& round);

  AdaptivePolicy policy_;
  ThroughputEstimator estimator_;
  Throughputs basis_;  ///< the estimates the current scheme was built from
  std::vector<double> times_;
};

/// Mean of the finite entries of times[begin, end); NaN when the window
/// holds none (empty, or every round undecodable).
double window_mean(const std::vector<double>& times, std::size_t begin,
                   std::size_t end);

}  // namespace hgc
