// Plain stochastic gradient descent — the optimizer of the BSP trainers
// (coded, threaded, serial reference). SSP applies its own per-push rate.
#pragma once

#include <span>

namespace hgc {

/// One learning-rate step per call: params ← params − lr · grad.
class SgdOptimizer {
 public:
  /// Throws std::invalid_argument unless `learning_rate` > 0.
  explicit SgdOptimizer(double learning_rate);

  /// In-place update. `grad` must already be the *mean* gradient (trainers
  /// normalize the coded sums before stepping).
  void step(std::span<double> params, std::span<const double> grad) const;

 private:
  double learning_rate_;
};

}  // namespace hgc
