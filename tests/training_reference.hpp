// References the training tests compare the library's trainers and
// gradients against: central-difference gradients and serial full-batch SGD.
#pragma once

#include <cstddef>
#include <span>
#include <utility>

#include "ml/gradient.hpp"
#include "ml/model.hpp"
#include "ml/sgd.hpp"
#include "runtime/sim_trainer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hgc {

/// Full-dataset sum gradient (equals Σ of the partition gradients).
inline Vector full_gradient(const SoftmaxRegression& model,
                            const Dataset& data,
                            std::span<const double> params) {
  return partition_gradient(model, data, all_rows(data.size()), params);
}

/// Central-difference numeric gradient of model.loss over `rows`.
inline Vector numeric_gradient(const SoftmaxRegression& model,
                               const Dataset& data,
                               std::span<const std::size_t> rows,
                               std::span<const double> params,
                               double step = 1e-5) {
  Vector perturbed(params.begin(), params.end());
  Vector grad(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    perturbed[i] = params[i] + step;
    const double up = model.loss(data, rows, perturbed);
    perturbed[i] = params[i] - step;
    const double down = model.loss(data, rows, perturbed);
    perturbed[i] = params[i];
    grad[i] = (up - down) / (2.0 * step);
  }
  return grad;
}

/// Serial single-machine SGD: the parameter trajectory every decodable BSP
/// coded run must reproduce. Reads only the iteration count and seed of
/// `config.experiment`.
inline BspTrainingResult train_serial(const SoftmaxRegression& model,
                                      const Dataset& data,
                                      const BspTrainingConfig& config) {
  HGC_REQUIRE(config.record_every > 0, "record_every must be positive");
  const std::size_t iterations = config.experiment.iterations;
  const SgdOptimizer optimizer(config.learning_rate);
  Rng init_rng(config.experiment.seed + 0x1111);
  Vector params = model.init_params(init_rng);
  const double inv_n = 1.0 / static_cast<double>(data.size());

  BspTrainingResult result;
  result.trace.label = "serial";
  result.trace.points.push_back({0.0, mean_loss(model, data, params), 0});
  for (std::size_t iter = 1; iter <= iterations; ++iter) {
    Vector grad = full_gradient(model, data, params);
    scale(inv_n, grad);
    optimizer.step(params, grad);
    if (iter % config.record_every == 0 || iter == iterations)
      result.trace.points.push_back(
          {static_cast<double>(iter), mean_loss(model, data, params), iter});
  }
  result.final_params = std::move(params);
  return result;
}

}  // namespace hgc
