#include "ml/gradient.hpp"

#include <numeric>

#include "util/error.hpp"

namespace hgc {

Vector partition_gradient(const SoftmaxRegression& model, const Dataset& data,
                          std::span<const std::size_t> rows,
                          std::span<const double> params) {
  Vector grad(model.num_params(), 0.0);
  model.gradient(data, rows, params, grad);
  return grad;
}

std::vector<Vector> all_partition_gradients(
    const SoftmaxRegression& model, const Dataset& data,
    const std::vector<std::vector<std::size_t>>& partitions,
    std::span<const double> params) {
  std::vector<Vector> grads;
  grads.reserve(partitions.size());
  for (const auto& rows : partitions)
    grads.push_back(partition_gradient(model, data, rows, params));
  return grads;
}

double mean_loss(const SoftmaxRegression& model, const Dataset& data,
                 std::span<const double> params) {
  HGC_REQUIRE(data.size() > 0, "empty dataset");
  const auto rows = all_rows(data.size());
  return model.loss(data, rows, params) / static_cast<double>(data.size());
}

std::vector<std::size_t> all_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

}  // namespace hgc
