// The model every trainer fits: multinomial logistic (softmax) regression
// over a caller-owned flat parameter vector.
//
// Loss and gradient are *sums* over an arbitrary row subset (not means):
// partial gradients over partitions then add up to the full-dataset gradient
// exactly — the property gradient coding depends on (g = Σ g_i, Section
// III-A). Trainers normalize by the dataset size.
#pragma once

#include <span>
#include <string>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace hgc {

/// Multinomial logistic (softmax) regression: W ∈ R^{classes×dim}, b ∈
/// R^{classes}; flat layout [W row-major, b].
class SoftmaxRegression {
 public:
  SoftmaxRegression(std::size_t dim, std::size_t classes);

  std::string name() const { return "softmax-regression"; }
  std::size_t num_params() const;

  /// Σ over `rows` of per-sample loss; adds Σ of per-sample gradients into
  /// `grad` (caller zeroes it). params/grad have num_params() entries.
  double loss_and_gradient(const Dataset& data,
                           std::span<const std::size_t> rows,
                           std::span<const double> params,
                           std::span<double> grad) const;

  /// Σ of per-sample losses only.
  double loss(const Dataset& data, std::span<const std::size_t> rows,
              std::span<const double> params) const;

  /// Fraction of `rows` classified correctly.
  double accuracy(const Dataset& data, std::span<const std::size_t> rows,
                  std::span<const double> params) const;

  /// Small random initialization (biases start at zero).
  Vector init_params(Rng& rng) const;

 private:
  std::size_t dim_;
  std::size_t classes_;
};

/// Numerically stable softmax cross-entropy over `logits` against `label`;
/// when `grad_logits` is non-empty, writes (softmax − onehot) into it.
double softmax_cross_entropy(std::span<double> logits, int label,
                             std::span<double> grad_logits);

}  // namespace hgc
