#include "ml/model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "linalg/kernels.hpp"
#include "util/error.hpp"

namespace hgc {

namespace {

// Rows per block: the block's numerators (64 × classes doubles) and row
// pointers stay in L1 from the exp pass through the rank-k update.
constexpr std::size_t kBlockRows = 64;

// Calls fn(block, x, e) for each run of up to kBlockRows consecutive
// entries of `rows`, after pointing x[i] at block row i's features and
// filling e (block.size() × classes) with that row's softmax numerators
// exp(logit − peak): logits = W·x + b, the peak is the row's maximum, and
// one exp_nonpositive call covers the whole block. Inputs are checked by
// the caller.
template <typename Fn>
void for_each_block(const Dataset& data, std::span<const std::size_t> rows,
                    std::span<const double> params, std::size_t classes,
                    Fn&& fn) {
  const std::size_t dim = data.dim();
  const double* const features = data.features.data().data();
  const std::span<const double> b = params.subspan(classes * dim, classes);
  std::array<const double*, kBlockRows> x{};
  Vector e(std::min(rows.size(), kBlockRows) * classes);
  for (std::size_t begin = 0; begin < rows.size(); begin += kBlockRows) {
    const std::span<const std::size_t> block =
        rows.subspan(begin, std::min(kBlockRows, rows.size() - begin));
    const std::span<double> numerators(e.data(), block.size() * classes);
    for (std::size_t i = 0; i < block.size(); ++i) {
      x[i] = features + block[i] * dim;
      const std::span<double> logits =
          numerators.subspan(i * classes, classes);
      kernels::gemv(params.data(), dim, classes, dim, {x[i], dim}, logits);
      kernels::axpy(1.0, b, logits);
      const double peak = *std::max_element(logits.begin(), logits.end());
      for (double& v : logits) v -= peak;
    }
    kernels::exp_nonpositive(numerators);
    fn(block, std::span<const double* const>(x.data(), block.size()),
       numerators);
  }
}

// The softmax denominator z = Σ_c e_c, summed in ascending class order.
double denominator(std::span<const double> e) {
  double z = 0.0;
  for (double v : e) z += v;
  return z;
}

}  // namespace

SoftmaxRegression::SoftmaxRegression(std::size_t dim, std::size_t classes)
    : dim_(dim), classes_(classes) {
  HGC_REQUIRE(dim > 0 && classes >= 2, "degenerate model shape");
}

std::size_t SoftmaxRegression::num_params() const {
  return classes_ * dim_ + classes_;
}

void SoftmaxRegression::check_inputs(const Dataset& data,
                                     std::span<const std::size_t> rows,
                                     std::span<const double> params) const {
  HGC_REQUIRE(params.size() == num_params(), "params size mismatch");
  HGC_REQUIRE(data.dim() == dim_ && data.num_classes == classes_ &&
                  data.labels.size() == data.size(),
              "dataset shape mismatch");
  for (std::size_t row : rows) {
    HGC_REQUIRE(row < data.size(), "row index out of range");
    const int label = data.labels[row];
    HGC_REQUIRE(label >= 0 && static_cast<std::size_t>(label) < classes_,
                "label out of range");
  }
}

void SoftmaxRegression::gradient(const Dataset& data,
                                 std::span<const std::size_t> rows,
                                 std::span<const double> params,
                                 std::span<double> grad) const {
  check_inputs(data, rows, params);
  HGC_REQUIRE(grad.size() == num_params(), "grad size mismatch");
  const std::span<double> gb = grad.subspan(classes_ * dim_, classes_);
  for_each_block(
      data, rows, params, classes_,
      [&](std::span<const std::size_t> block,
          std::span<const double* const> x, std::span<double> e) {
        // Each row's numerators become its logit gradient, softmax − onehot.
        for (std::size_t i = 0; i < block.size(); ++i) {
          const std::span<double> d = e.subspan(i * classes_, classes_);
          const double inv_z = 1.0 / denominator(d);
          for (double& v : d) v *= inv_z;
          d[static_cast<std::size_t>(data.labels[block[i]])] -= 1.0;
          kernels::axpy(1.0, d, gb);
        }
        kernels::rank_k_update(grad.data(), dim_, classes_, dim_, e, x);
      });
}

double SoftmaxRegression::loss(const Dataset& data,
                               std::span<const std::size_t> rows,
                               std::span<const double> params) const {
  check_inputs(data, rows, params);
  double total_loss = 0.0;
  for_each_block(
      data, rows, params, classes_,
      [&](std::span<const std::size_t> block, std::span<const double* const>,
          std::span<const double> e) {
        for (std::size_t i = 0; i < block.size(); ++i) {
          const std::span<const double> ei = e.subspan(i * classes_, classes_);
          const double prob_label =
              ei[static_cast<std::size_t>(data.labels[block[i]])] *
              (1.0 / denominator(ei));
          total_loss += -std::log(std::max(prob_label, 1e-300));
        }
      });
  return total_loss;
}

double SoftmaxRegression::accuracy(const Dataset& data,
                                   std::span<const std::size_t> rows,
                                   std::span<const double> params) const {
  check_inputs(data, rows, params);
  if (rows.empty()) return 0.0;
  const std::span<const double> w = params.subspan(0, classes_ * dim_);
  const std::span<const double> b = params.subspan(classes_ * dim_, classes_);
  std::size_t correct = 0;
  Vector logits(classes_);
  for (std::size_t row : rows) {
    const auto x = data.features.row(row);
    kernels::gemv(w.data(), dim_, classes_, dim_, x, logits);
    kernels::axpy(1.0, b, logits);
    const auto best = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
    correct += best == data.labels[row] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(rows.size());
}

Vector SoftmaxRegression::init_params(Rng& rng) const {
  Vector params(num_params(), 0.0);
  const double scale = 1.0 / std::sqrt(static_cast<double>(dim_));
  for (std::size_t i = 0; i < classes_ * dim_; ++i)
    params[i] = rng.normal(0.0, scale);
  return params;  // biases start at zero
}

}  // namespace hgc
