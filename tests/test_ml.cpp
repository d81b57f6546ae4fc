// Tests for the ML substrate: datasets, the softmax model (gradient checked
// against finite differences), SGD, and the partition-sum property gradient
// coding rests on.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/dataset.hpp"
#include "ml/gradient.hpp"
#include "ml/model.hpp"
#include "ml/sgd.hpp"

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

TEST(SoftmaxCrossEntropy, KnownValues) {
  Vector logits = {0.0, 0.0};
  Vector grad(2);
  const double loss = softmax_cross_entropy(logits, 0, grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(grad[0], -0.5, 1e-12);
  EXPECT_NEAR(grad[1], 0.5, 1e-12);
}

TEST(SoftmaxCrossEntropy, StableUnderHugeLogits) {
  Vector logits = {1000.0, -1000.0};
  Vector grad(2);
  const double loss = softmax_cross_entropy(logits, 0, grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-9);
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

TEST(Models, LossConsistentWithLossAndGradient) {
  Rng rng(88);
  const Dataset ds = tiny_dataset(rng);
  SoftmaxRegression model(5, 3);
  const Vector params = model.init_params(rng);
  const auto rows = all_rows(ds.size());
  Vector grad(model.num_params(), 0.0);
  const double with_grad = model.loss_and_gradient(ds, rows, params, grad);
  EXPECT_NEAR(with_grad, model.loss(ds, rows, params), 1e-12);
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
  Vector bad(3, 0.0);
  Vector grad(model.num_params(), 0.0);
  EXPECT_THROW(
      model.loss_and_gradient(ds, all_rows(ds.size()), bad, grad),
      std::invalid_argument);
}

}  // namespace
}  // namespace hgc
