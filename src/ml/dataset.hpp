// Datasets and partitioning for the learning experiments.
//
// Substitution note (see DESIGN.md §5): the paper trains AlexNet/CIFAR-10 and
// ResNet34/ImageNet on PyTorch. Gradient coding is agnostic to what produces
// the per-partition gradient vectors, so we substitute a synthetic
// Gaussian-cluster classification task whose gradients are computed by the
// from-scratch softmax regression in model.hpp. The synthetic-CIFAR
// generator mimics CIFAR-10's shape at reduced dimensionality (10 classes,
// configurable feature dim) and gives every experiment a reproducible data
// source.
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace hgc {

/// Dense classification dataset.
struct Dataset {
  Matrix features;          ///< n × d
  std::vector<int> labels;  ///< length n, values in [0, num_classes)
  std::size_t num_classes = 0;

  std::size_t size() const { return features.rows(); }
  std::size_t dim() const { return features.cols(); }
};

/// Gaussian-cluster classification: class means drawn on a sphere of radius
/// `separation`, unit-variance features around them. separation ≈ 2-3 gives
/// a learnable-but-not-trivial task.
Dataset make_gaussian_classification(std::size_t n, std::size_t dim,
                                     std::size_t classes, double separation,
                                     Rng& rng);

/// CIFAR-10-shaped synthetic stand-in: 10 classes, default 64 features.
Dataset make_synthetic_cifar10(std::size_t n, Rng& rng,
                               std::size_t dim = 64);

/// Row indices of each of the k partitions (contiguous, near-equal; the
/// first n % k partitions get one extra row).
std::vector<std::vector<std::size_t>> partition_rows(std::size_t n,
                                                     std::size_t k);

/// Reorder a dataset so rows are grouped by label. Combined with contiguous
/// partitioning this produces *non-IID* shards (each worker sees few
/// classes) — the regime where SSP's unbalanced contributions visibly hurt
/// convergence (the paper's second argument against SSP in Fig. 4). BSP
/// coded schemes are immune: their decoded gradient is the exact full-batch
/// gradient regardless of how rows are laid out.
Dataset sort_by_label(const Dataset& data);

}  // namespace hgc
