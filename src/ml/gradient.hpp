// Partition-gradient helpers shared by the trainers and the test suite.
#pragma once

#include <vector>

#include "ml/dataset.hpp"
#include "ml/model.hpp"

namespace hgc {

/// Sum-gradient over one row subset (the paper's g_i for partition i).
Vector partition_gradient(const SoftmaxRegression& model, const Dataset& data,
                          std::span<const std::size_t> rows,
                          std::span<const double> params);

/// All k partition gradients.
std::vector<Vector> all_partition_gradients(
    const SoftmaxRegression& model, const Dataset& data,
    const std::vector<std::vector<std::size_t>>& partitions,
    std::span<const double> params);

/// Mean loss over the whole dataset.
double mean_loss(const SoftmaxRegression& model, const Dataset& data,
                 std::span<const double> params);

/// All row indices [0, n).
std::vector<std::size_t> all_rows(std::size_t n);

}  // namespace hgc
