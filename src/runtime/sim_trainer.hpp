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

#include <cstdint>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/scheme_factory.hpp"
#include "ml/gradient.hpp"
#include "ml/model.hpp"
#include "ml/sgd.hpp"
#include "runtime/loss_trace.hpp"
#include "sim/iteration.hpp"

namespace hgc {

/// Configuration for a virtual-time BSP training run.
struct BspTrainingConfig {
  std::size_t iterations = 100;
  SgdOptions sgd;
  StragglerModel straggler_model;
  SimParams sim;
  double estimation_sigma = 0.0;  ///< throughput-estimate error for the code
  std::uint64_t seed = 42;
  std::size_t record_every = 1;   ///< trace sampling stride (iterations)
};

/// Outcome of a BSP run.
struct BspTrainingResult {
  LossTrace trace;
  Vector final_params;
  std::size_t failed_iterations = 0;  ///< undecodable (clock stalls forever)
  double final_accuracy = 0.0;
};

/// Train `model` on `data` under `kind`'s coding scheme on `cluster` with k
/// partitions (0 = 2m) and straggler tolerance s.
BspTrainingResult train_bsp_coded(SchemeKind kind, const Cluster& cluster,
                                  const Model& model, const Dataset& data,
                                  std::size_t k, std::size_t s,
                                  const BspTrainingConfig& config);

/// Serial single-machine SGD reference: identical parameter trajectory to
/// any decodable BSP coded run (the exactness property tests rely on).
BspTrainingResult train_serial(const Model& model, const Dataset& data,
                               const BspTrainingConfig& config);

/// The *approximate* straggler-ignoring baseline the paper declines to use
/// ([35]/[36]: "at the cost of sacrificing optimization accuracy"): uncoded
/// even allocation, the master sums whichever m−s shard gradients arrive
/// first and rescales by the covered sample count. Fast — it never waits for
/// stragglers and carries zero redundancy — but each update is a biased
/// subsample gradient, so the loss path deviates from exact SGD (and under
/// non-IID shards the bias is systematic). Included for the accuracy-vs-time
/// trade-off ablation.
BspTrainingResult train_bsp_ignore_stragglers(
    const Cluster& cluster, const Model& model, const Dataset& data,
    std::size_t s, const BspTrainingConfig& config);

}  // namespace hgc
