// The model every trainer fits: multinomial logistic (softmax) regression
// over a caller-owned flat parameter vector.
//
// Loss and gradient are *sums* over an arbitrary row subset (not means):
// partial gradients over partitions then add up to the full-dataset gradient
// exactly — the property gradient coding depends on (g = Σ g_i, Section
// III-A). Trainers normalize by the dataset size.
//
// Both walk the rows in blocks of 64: per-row logits (gemv, then the bias),
// each row's peak subtracted, one kernels::exp_nonpositive over the block,
// then per row z = Σ_c e_c in ascending class order. The gradient adds the
// block's logit gradients into the weights with one kernels::rank_k_update,
// whose per-element order is the per-sample rank-1 sequence, so the block
// size never changes a bit.
//
// Every entry point validates its inputs once per call (params size, the
// dataset's dim and classes, each row index and each row's label) and
// throws std::invalid_argument; the block loops then index unchecked.
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

  /// Adds Σ over `rows` of per-sample loss gradients into `grad` (caller
  /// zeroes it). params/grad have num_params() entries. Computes no loss.
  void gradient(const Dataset& data, std::span<const std::size_t> rows,
                std::span<const double> params, std::span<double> grad) const;

  /// Σ over `rows` of per-sample cross-entropy losses.
  double loss(const Dataset& data, std::span<const std::size_t> rows,
              std::span<const double> params) const;

  /// Fraction of `rows` classified correctly.
  double accuracy(const Dataset& data, std::span<const std::size_t> rows,
                  std::span<const double> params) const;

  /// Small random initialization (biases start at zero).
  Vector init_params(Rng& rng) const;

 private:
  void check_inputs(const Dataset& data, std::span<const std::size_t> rows,
                    std::span<const double> params) const;

  std::size_t dim_;
  std::size_t classes_;
};

}  // namespace hgc
