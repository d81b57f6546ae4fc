#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace hgc {

Dataset make_gaussian_classification(std::size_t n, std::size_t dim,
                                     std::size_t classes, double separation,
                                     Rng& rng) {
  HGC_REQUIRE(n > 0 && dim > 0 && classes >= 2, "degenerate dataset shape");
  HGC_REQUIRE(separation > 0.0, "separation must be positive");

  // Class means: random Gaussian directions scaled to `separation`.
  Matrix means(classes, dim);
  for (std::size_t c = 0; c < classes; ++c) {
    double norm = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      means(c, j) = rng.normal();
      norm += means(c, j) * means(c, j);
    }
    norm = std::sqrt(norm);
    for (std::size_t j = 0; j < dim; ++j)
      means(c, j) *= separation / norm;
  }

  Dataset ds;
  ds.features = Matrix(n, dim);
  ds.labels.resize(n);
  ds.num_classes = classes;
  for (std::size_t i = 0; i < n; ++i) {
    const auto label = static_cast<int>(i % classes);  // balanced classes
    ds.labels[i] = label;
    for (std::size_t j = 0; j < dim; ++j)
      ds.features(i, j) =
          means(static_cast<std::size_t>(label), j) + rng.normal();
  }
  return ds;
}

Dataset make_synthetic_cifar10(std::size_t n, Rng& rng, std::size_t dim) {
  return make_gaussian_classification(n, dim, 10, 2.5, rng);
}

std::vector<std::vector<std::size_t>> partition_rows(std::size_t n,
                                                     std::size_t k) {
  HGC_REQUIRE(k > 0, "need at least one partition");
  HGC_REQUIRE(n >= k, "fewer rows than partitions");
  std::vector<std::vector<std::size_t>> parts(k);
  const std::size_t base = n / k;
  const std::size_t extra = n % k;
  std::size_t next = 0;
  for (std::size_t p = 0; p < k; ++p) {
    const std::size_t count = base + (p < extra ? 1 : 0);
    parts[p].reserve(count);
    for (std::size_t i = 0; i < count; ++i) parts[p].push_back(next++);
  }
  HGC_ASSERT(next == n, "partitioning must cover every row exactly once");
  return parts;
}

Dataset sort_by_label(const Dataset& data) {
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return data.labels[a] < data.labels[b];
                   });
  Dataset sorted;
  sorted.features = Matrix(data.size(), data.dim());
  sorted.labels.resize(data.size());
  sorted.num_classes = data.num_classes;
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted.features.set_row(i, data.features.row(order[i]));
    sorted.labels[i] = data.labels[order[i]];
  }
  return sorted;
}

}  // namespace hgc
