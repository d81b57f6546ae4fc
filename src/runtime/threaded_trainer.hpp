// Real-thread BSP coded training: one OS thread per worker, a blocking
// channel to the master, genuine gradient computation and encoding on the
// workers, decoding on the master as results arrive.
//
// Heterogeneity and stragglers are physically realized: each worker sleeps
// for its simulated compute duration (scaled by `time_scale` so tests stay
// fast), then does the real math. Faulted workers stay silent for the
// iteration. After each result the master applies first_decodable_prefix
// (core/decoder), the rule every simulated round uses, to the arrivals so
// far and steps once a prefix decodes — the same protocol the paper
// deployed on QingCloud, shrunk onto threads.
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/coding_scheme.hpp"
#include "ml/gradient.hpp"
#include "ml/model.hpp"
#include "runtime/loss_trace.hpp"

namespace hgc {

/// Configuration for the threaded runtime.
struct ThreadedTrainingConfig {
  std::size_t iterations = 10;
  double learning_rate = 0.1;  ///< plain SGD step size
  StragglerModel straggler_model;
  /// Wall seconds of sleep per simulated second (1e-3 → a 1 s simulated
  /// iteration sleeps 1 ms). 0 disables the physical delay entirely.
  double time_scale = 1e-3;
  std::uint64_t seed = 42;
};

/// Outcome of a threaded run.
struct ThreadedTrainingResult {
  LossTrace trace;              ///< wall-clock timestamps
  Vector final_params;
  std::size_t results_discarded = 0;  ///< stale arrivals from past iterations
  double final_accuracy = 0.0;
};

/// Run BSP coded training with real threads. The scheme determines both the
/// data layout and the coding; `cluster` supplies the simulated speeds.
ThreadedTrainingResult train_bsp_threaded(const CodingScheme& scheme,
                                          const Cluster& cluster,
                                          const SoftmaxRegression& model,
                                          const Dataset& data,
                                          const ThreadedTrainingConfig& config);

}  // namespace hgc
