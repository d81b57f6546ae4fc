#include "ml/model.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "util/error.hpp"

namespace hgc {

double softmax_cross_entropy(std::span<double> logits, int label,
                             std::span<double> grad_logits) {
  HGC_REQUIRE(label >= 0 && static_cast<std::size_t>(label) < logits.size(),
              "label out of range");
  const double peak = *std::max_element(logits.begin(), logits.end());
  double z = 0.0;
  for (double& v : logits) {
    v = std::exp(v - peak);
    z += v;
  }
  const double inv_z = 1.0 / z;
  const double prob_label =
      logits[static_cast<std::size_t>(label)] * inv_z;
  if (!grad_logits.empty()) {
    HGC_REQUIRE(grad_logits.size() == logits.size(), "gradient size mismatch");
    for (std::size_t c = 0; c < logits.size(); ++c)
      grad_logits[c] = logits[c] * inv_z;
    grad_logits[static_cast<std::size_t>(label)] -= 1.0;
  }
  return -std::log(std::max(prob_label, 1e-300));
}

SoftmaxRegression::SoftmaxRegression(std::size_t dim, std::size_t classes)
    : dim_(dim), classes_(classes) {
  HGC_REQUIRE(dim > 0 && classes >= 2, "degenerate model shape");
}

std::size_t SoftmaxRegression::num_params() const {
  return classes_ * dim_ + classes_;
}

double SoftmaxRegression::loss_and_gradient(const Dataset& data,
                                            std::span<const std::size_t> rows,
                                            std::span<const double> params,
                                            std::span<double> grad) const {
  HGC_REQUIRE(params.size() == num_params(), "params size mismatch");
  HGC_REQUIRE(grad.size() == num_params(), "grad size mismatch");
  HGC_REQUIRE(data.dim() == dim_ && data.num_classes == classes_,
              "dataset shape mismatch");
  const std::span<const double> w = params.subspan(0, classes_ * dim_);
  const std::span<const double> b = params.subspan(classes_ * dim_, classes_);
  const std::span<double> gw = grad.subspan(0, classes_ * dim_);
  const std::span<double> gb = grad.subspan(classes_ * dim_, classes_);

  Vector logits(classes_);
  Vector dlogits(classes_);
  double total_loss = 0.0;
  for (std::size_t row : rows) {
    const auto x = data.features.row(row);
    kernels::gemv(w.data(), dim_, classes_, dim_, x, logits);
    kernels::axpy(1.0, b, logits);
    total_loss += softmax_cross_entropy(logits, data.labels[row], dlogits);
    kernels::rank1_update(gw.data(), dim_, classes_, dim_, 1.0, dlogits, x);
    kernels::axpy(1.0, dlogits, gb);
  }
  return total_loss;
}

double SoftmaxRegression::loss(const Dataset& data,
                               std::span<const std::size_t> rows,
                               std::span<const double> params) const {
  HGC_REQUIRE(params.size() == num_params(), "params size mismatch");
  const std::span<const double> w = params.subspan(0, classes_ * dim_);
  const std::span<const double> b = params.subspan(classes_ * dim_, classes_);
  Vector logits(classes_);
  double total_loss = 0.0;
  for (std::size_t row : rows) {
    const auto x = data.features.row(row);
    kernels::gemv(w.data(), dim_, classes_, dim_, x, logits);
    kernels::axpy(1.0, b, logits);
    total_loss += softmax_cross_entropy(logits, data.labels[row], {});
  }
  return total_loss;
}

double SoftmaxRegression::accuracy(const Dataset& data,
                                   std::span<const std::size_t> rows,
                                   std::span<const double> params) const {
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
