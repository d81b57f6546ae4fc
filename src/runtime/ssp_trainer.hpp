// Stale Synchronous Parallel (SSP) baseline for Fig. 4.
//
// The paper compares its BSP coded schemes against SSP [17] on heterogeneous
// clusters and observes two failure modes we reproduce: (1) with a bounded
// staleness threshold, fast workers block on the slowest worker's clock
// almost every step, collapsing toward BSP synchronization cost; (2) the
// parameter server receives unbalanced contributions (fast workers push many
// more updates about their own shards), hurting convergence.
//
// The trainer is a virtual-clock simulation with real gradient computations:
// each worker repeatedly pulls the current parameters, computes the gradient
// of its own data shard (time drawn from its throughput and fluctuation),
// pushes an update, and may only run ahead of the slowest worker by
// `staleness` clocks. Pushes complete in (finish time, worker) order from a
// priority queue; a worker has at most one push in flight.
#pragma once

#include "cluster/cluster.hpp"
#include "ml/gradient.hpp"
#include "ml/model.hpp"
#include "runtime/loss_trace.hpp"
#include "sim/experiment.hpp"

namespace hgc {

/// SSP hyperparameters.
struct SspTrainingConfig {
  /// The run's cluster-side parameters, shared with the BSP series of the
  /// same cell: the update budget (the run stops after iterations·m worker
  /// pushes, matching the gradient work of that many BSP iterations), the
  /// straggler model, the seed, and sim.comm_latency, which every push pays.
  /// k, s and the estimation error do not apply to SSP.
  ExperimentConfig experiment;
  /// Per-update learning rate; scaled by 1/m so that m pushes approximate
  /// one full-batch BSP step.
  double learning_rate = 0.1;
  std::size_t record_every = 1;  ///< trace sampling stride, in epochs
  /// Staleness bound: a worker at clock c blocks until c − min_clock ≤ this.
  std::size_t staleness = 3;
};

/// Outcome of an SSP run.
struct SspTrainingResult {
  LossTrace trace;
  Vector final_params;
  /// Mean over time of (max clock − min clock): how unevenly workers
  /// progressed; large values = heavy staleness pressure.
  double mean_clock_spread = 0.0;
  /// Fraction of scheduling decisions where a worker was staleness-blocked.
  double blocked_fraction = 0.0;
};

/// Run SSP on `cluster`, sharding `data` contiguously and evenly across
/// workers (sort_by_label first to give each worker few classes — the
/// non-IID regime of the paper's Fig. 4 argument).
SspTrainingResult train_ssp(const Cluster& cluster,
                            const SoftmaxRegression& model,
                            const Dataset& data,
                            const SspTrainingConfig& config);

}  // namespace hgc
