// Virtual-clock BSP training (the coded curves of Fig. 4).
//
// Every iteration runs the full coded pipeline with *real* gradients — each
// worker's coded message is a genuine linear combination of its partition
// gradients at the current parameters, the master combines the messages that
// had arrived at the simulated decode time — while the clock advances by the
// simulator's iteration time. The coded trainer is a RoundHook on
// sim::run_experiment, so its rounds are that loop's rounds (same seed
// streams, same conditions). BSP exactness means every scheme follows the
// same loss-per-iteration path; schemes differ in how fast the clock moves,
// which is precisely the effect Fig. 4 plots.
#pragma once

#include "cluster/cluster.hpp"
#include "core/scheme_factory.hpp"
#include "ml/gradient.hpp"
#include "ml/model.hpp"
#include "runtime/loss_trace.hpp"
#include "sim/experiment.hpp"

namespace hgc {

/// Configuration for a virtual-time BSP training run.
struct BspTrainingConfig {
  /// The run's cluster-side parameters, read exactly as sim::run_experiment
  /// reads them: k (0 = 2m) and s, the straggler model, the estimation
  /// error, the iteration count, the seed and the simulator parameters.
  ExperimentConfig experiment;
  double learning_rate = 0.1;     ///< plain SGD step size
  std::size_t record_every = 1;   ///< trace sampling stride (iterations)
};

/// Outcome of a BSP run.
struct BspTrainingResult {
  LossTrace trace;
  Vector final_params;
  std::size_t failed_iterations = 0;  ///< undecodable (clock stalls forever)
};

/// Train `model` on `data` under `kind`'s coding scheme on `cluster`.
BspTrainingResult train_bsp_coded(SchemeKind kind, const Cluster& cluster,
                                  const SoftmaxRegression& model,
                                  const Dataset& data,
                                  const BspTrainingConfig& config);

/// The *approximate* straggler-ignoring baseline the paper declines to use
/// ([35]/[36]: "at the cost of sacrificing optimization accuracy"): uncoded
/// even allocation, the master sums whichever m−s shard gradients arrive
/// first and rescales by the covered sample count. Fast — it never waits for
/// stragglers and carries zero redundancy — but each update is a biased
/// subsample gradient, so the loss path deviates from exact SGD (and under
/// non-IID shards the bias is systematic). Included for the accuracy-vs-time
/// trade-off ablation. Ignores k and the estimation error.
BspTrainingResult train_bsp_ignore_stragglers(
    const Cluster& cluster, const SoftmaxRegression& model,
    const Dataset& data, const BspTrainingConfig& config);

}  // namespace hgc
