// Tests for the ML substrate: datasets, the softmax model (gradient checked
// against finite differences), SGD, and the partition-sum property gradient
// coding rests on.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "ml/dataset.hpp"
#include "ml/gradient.hpp"
#include "ml/model.hpp"
#include "ml/sgd.hpp"
#include "training_reference.hpp"

namespace hgc {
namespace {

Dataset tiny_dataset(Rng& rng, std::size_t n = 40, std::size_t dim = 5,
                     std::size_t classes = 3) {
  return make_gaussian_classification(n, dim, classes, 2.0, rng);
}

TEST(Dataset, ShapesAndLabels) {
  Rng rng(81);
  const Dataset ds = make_gaussian_classification(100, 8, 4, 2.0, rng);
  EXPECT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.dim(), 8u);
  EXPECT_EQ(ds.num_classes, 4u);
  for (int label : ds.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(Dataset, BalancedClasses) {
  Rng rng(82);
  const Dataset ds = make_gaussian_classification(40, 4, 4, 2.0, rng);
  std::vector<int> counts(4, 0);
  for (int label : ds.labels) ++counts[static_cast<std::size_t>(label)];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(Dataset, SyntheticCifarShape) {
  Rng rng(83);
  const Dataset ds = make_synthetic_cifar10(50, rng);
  EXPECT_EQ(ds.num_classes, 10u);
  EXPECT_EQ(ds.dim(), 64u);
}

TEST(Dataset, SeparableEnoughToLearn) {
  Rng rng(84);
  const Dataset ds = make_gaussian_classification(200, 6, 2, 3.0, rng);
  SoftmaxRegression model(6, 2);
  Vector params = model.init_params(rng);
  const SgdOptimizer opt(0.5);
  const double initial = mean_loss(model, ds, params);
  for (int i = 0; i < 50; ++i) {
    Vector grad = full_gradient(model, ds, params);
    scale(1.0 / static_cast<double>(ds.size()), grad);
    opt.step(params, grad);
  }
  EXPECT_LT(mean_loss(model, ds, params), 0.5 * initial);
  EXPECT_GT(model.accuracy(ds, all_rows(ds.size()), params), 0.9);
}

TEST(PartitionRows, CoversEverythingOnce) {
  const auto parts = partition_rows(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);  // 10 = 4 + 3 + 3
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
  std::vector<bool> seen(10, false);
  for (const auto& part : parts)
    for (std::size_t row : part) {
      EXPECT_FALSE(seen[row]);
      seen[row] = true;
    }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(PartitionRows, RejectsMorePartsThanRows) {
  EXPECT_THROW(partition_rows(2, 3), std::invalid_argument);
}

TEST(SoftmaxRegression, ZeroParamsGiveUniformSoftmax) {
  // All-zero parameters: every row's softmax is uniform, so each row costs
  // log(classes) and adds 1/classes − onehot to the bias gradient. Rows
  // 0..38 of a balanced 4-class set hold 10, 10, 10 and 9 of each label.
  Rng rng(86);
  const Dataset ds = tiny_dataset(rng, 40, 5, 4);
  SoftmaxRegression model(5, 4);
  const Vector params(model.num_params(), 0.0);
  const auto rows = all_rows(39);
  EXPECT_NEAR(model.loss(ds, rows, params), 39.0 * std::log(4.0), 1e-12);
  const Vector grad = partition_gradient(model, ds, rows, params);
  const double count[4] = {10.0, 10.0, 10.0, 9.0};
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_NEAR(grad[4 * 5 + c], 39.0 / 4.0 - count[c], 1e-12);
}

TEST(SoftmaxRegression, StableUnderHugeLogits) {
  // Weights that put logits near ±1000: the peak shift keeps every exp
  // argument nonpositive, so loss and gradient stay finite.
  Rng rng(91);
  const Dataset ds = tiny_dataset(rng, 20, 5, 3);
  SoftmaxRegression model(5, 3);
  Vector params = model.init_params(rng);
  for (double& p : params) p *= 1000.0;
  const auto rows = all_rows(ds.size());
  EXPECT_TRUE(std::isfinite(model.loss(ds, rows, params)));
  for (double g : partition_gradient(model, ds, rows, params))
    EXPECT_TRUE(std::isfinite(g));
}

TEST(SoftmaxRegression, GradientMatchesFiniteDifferences) {
  Rng rng(85);
  const Dataset ds = tiny_dataset(rng, 12, 4, 3);
  SoftmaxRegression model(4, 3);
  const Vector params = model.init_params(rng);
  const auto rows = all_rows(ds.size());
  const Vector analytic = partition_gradient(model, ds, rows, params);
  const Vector numeric = numeric_gradient(model, ds, rows, params);
  ASSERT_EQ(analytic.size(), numeric.size());
  for (std::size_t i = 0; i < analytic.size(); ++i)
    EXPECT_NEAR(analytic[i], numeric[i], 1e-5) << "param " << i;
}

TEST(Models, PartitionGradientsSumToFullGradient) {
  // The algebraic foundation of gradient coding: g = Σ_i g_i.
  Rng rng(87);
  const Dataset ds = tiny_dataset(rng, 30, 5, 3);
  SoftmaxRegression model(5, 3);
  const Vector params = model.init_params(rng);
  const auto partitions = partition_rows(ds.size(), 7);
  const auto grads = all_partition_gradients(model, ds, partitions, params);
  Vector sum(model.num_params(), 0.0);
  for (const Vector& g : grads) axpy(1.0, g, sum);
  const Vector full = full_gradient(model, ds, params);
  for (std::size_t i = 0; i < sum.size(); ++i)
    EXPECT_NEAR(sum[i], full[i], 1e-9);
}

TEST(Models, GradientIsBitIdenticalAcrossCallSplits) {
  // gradient() adds into grad with each element summing its samples in row
  // order, so the 64-row blocking is invisible: one call over 150 rows
  // (blocks of 64, 64, 22) equals three calls over 1, 70 and 79 rows, and
  // equals 150 single-row calls, bit for bit.
  Rng rng(88);
  const Dataset ds = tiny_dataset(rng, 150, 5, 3);
  SoftmaxRegression model(5, 3);
  const Vector params = model.init_params(rng);
  const auto rows = all_rows(ds.size());
  const Vector whole = partition_gradient(model, ds, rows, params);
  Vector split(model.num_params(), 0.0);
  const std::span<const std::size_t> all(rows);
  model.gradient(ds, all.subspan(0, 1), params, split);
  model.gradient(ds, all.subspan(1, 70), params, split);
  model.gradient(ds, all.subspan(71), params, split);
  Vector single(model.num_params(), 0.0);
  for (std::size_t row : rows)
    model.gradient(ds, std::span<const std::size_t>(&row, 1), params, single);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(whole[i]),
              std::bit_cast<std::uint64_t>(split[i])) << "param " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(whole[i]),
              std::bit_cast<std::uint64_t>(single[i])) << "param " << i;
  }
}

TEST(Sgd, PlainStep) {
  const SgdOptimizer opt(0.1);
  Vector params = {1.0, 2.0};
  const Vector grad = {1.0, -1.0};
  opt.step(params, grad);
  EXPECT_NEAR(params[0], 0.9, 1e-12);
  EXPECT_NEAR(params[1], 2.1, 1e-12);
}

TEST(Sgd, RejectsBadHyperparameters) {
  EXPECT_THROW(SgdOptimizer(0.0), std::invalid_argument);
  EXPECT_THROW(SgdOptimizer(-0.1), std::invalid_argument);
}

TEST(Models, AccuracyBoundsAndEmptyRows) {
  Rng rng(89);
  const Dataset ds = tiny_dataset(rng);
  SoftmaxRegression model(5, 3);
  const Vector params = model.init_params(rng);
  const double acc = model.accuracy(ds, all_rows(ds.size()), params);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  EXPECT_DOUBLE_EQ(model.accuracy(ds, {}, params), 0.0);
}

TEST(Models, RejectsWrongParameterSize) {
  Rng rng(90);
  const Dataset ds = tiny_dataset(rng);
  SoftmaxRegression model(5, 3);
  const auto rows = all_rows(ds.size());
  Vector bad(3, 0.0);
  Vector grad(model.num_params(), 0.0);
  EXPECT_THROW(model.gradient(ds, rows, bad, grad), std::invalid_argument);
  EXPECT_THROW(model.loss(ds, rows, bad), std::invalid_argument);
  EXPECT_THROW(model.accuracy(ds, rows, bad), std::invalid_argument);
  Vector short_grad(model.num_params() - 1, 0.0);
  EXPECT_THROW(model.gradient(ds, rows, model.init_params(rng), short_grad),
               std::invalid_argument);
}

TEST(Models, RejectsDatasetOfAnotherShape) {
  // A dim-4 dataset against a dim-6 model used to read past the feature
  // buffer in loss(); every entry point now checks dim and classes first.
  Rng rng(92);
  const Dataset narrow = tiny_dataset(rng, 20, 4, 3);
  const Dataset more_classes = tiny_dataset(rng, 20, 6, 4);
  SoftmaxRegression model(6, 3);
  const Vector params = model.init_params(rng);
  Vector grad(model.num_params(), 0.0);
  for (const Dataset* ds : {&narrow, &more_classes}) {
    const auto rows = all_rows(ds->size());
    EXPECT_THROW(model.gradient(*ds, rows, params, grad),
                 std::invalid_argument);
    EXPECT_THROW(model.loss(*ds, rows, params), std::invalid_argument);
    EXPECT_THROW(model.accuracy(*ds, rows, params), std::invalid_argument);
  }
}

TEST(Models, RejectsRowOutOfRange) {
  Rng rng(93);
  const Dataset ds = tiny_dataset(rng, 20, 5, 3);
  SoftmaxRegression model(5, 3);
  const Vector params = model.init_params(rng);
  Vector grad(model.num_params(), 0.0);
  const std::vector<std::size_t> rows = {0, 5, 20};
  EXPECT_THROW(model.gradient(ds, rows, params, grad), std::invalid_argument);
  EXPECT_THROW(model.loss(ds, rows, params), std::invalid_argument);
  EXPECT_THROW(model.accuracy(ds, rows, params), std::invalid_argument);
}

TEST(Models, RejectsLabelOutOfRange) {
  Rng rng(94);
  SoftmaxRegression model(5, 3);
  const Vector params = model.init_params(rng);
  Vector grad(model.num_params(), 0.0);
  for (int label : {3, -1}) {
    Dataset ds = tiny_dataset(rng, 20, 5, 3);
    ds.labels[7] = label;
    const auto rows = all_rows(ds.size());
    EXPECT_THROW(model.gradient(ds, rows, params, grad),
                 std::invalid_argument);
    EXPECT_THROW(model.loss(ds, rows, params), std::invalid_argument);
    EXPECT_THROW(model.accuracy(ds, rows, params), std::invalid_argument);
  }
}

}  // namespace
}  // namespace hgc
