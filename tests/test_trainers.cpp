// Tests for the virtual-clock BSP trainer and the SSP baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "runtime/sim_trainer.hpp"
#include "runtime/ssp_trainer.hpp"
#include "training_reference.hpp"

namespace hgc {
namespace {

Dataset small_data(std::uint64_t seed = 99) {
  Rng rng(seed);
  return make_gaussian_classification(64, 6, 3, 2.5, rng);
}

/// `iterations` BSP rounds with k = 24 partitions and s = 1.
BspTrainingConfig bsp_config(std::size_t iterations) {
  BspTrainingConfig config;
  config.experiment.k = 24;
  config.experiment.s = 1;
  config.experiment.iterations = iterations;
  return config;
}

TEST(BspTrainer, LossDecreases) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  BspTrainingConfig config = bsp_config(40);
  config.learning_rate = 0.5;
  const auto result = train_bsp_coded(SchemeKind::kHeterAware, cluster, model,
                                      data, config);
  ASSERT_GE(result.trace.points.size(), 2u);
  EXPECT_LT(result.trace.final_loss(), result.trace.points.front().loss);
  EXPECT_EQ(result.failed_iterations, 0u);
}

TEST(BspTrainer, CodedTrajectoriesMatchSerialExactly) {
  // BSP exactness: with any decodable coded scheme, the parameter sequence
  // matches serial full-batch SGD up to floating-point combination error —
  // even while stragglers are being dropped every iteration.
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  BspTrainingConfig config = bsp_config(15);
  config.learning_rate = 0.3;
  config.experiment.model.num_stragglers = 1;
  config.experiment.model.delay_seconds = 0.5;

  const auto serial = train_serial(model, data, config);
  for (SchemeKind kind :
       {SchemeKind::kNaive, SchemeKind::kCyclic, SchemeKind::kHeterAware,
        SchemeKind::kGroupBased}) {
    BspTrainingConfig cfg = config;
    if (kind == SchemeKind::kNaive)
      cfg.experiment.model = {};  // naive cannot drop anyone
    const auto coded = train_bsp_coded(kind, cluster, model, data, cfg);
    ASSERT_EQ(coded.final_params.size(), serial.final_params.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < serial.final_params.size(); ++i)
      worst = std::max(worst, std::abs(coded.final_params[i] -
                                       serial.final_params[i]));
    EXPECT_LT(worst, 1e-6) << to_string(kind);
  }
}

TEST(BspTrainer, HeterAwareClockFasterThanCyclic) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  BspTrainingConfig config = bsp_config(20);
  config.experiment.model.num_stragglers = 1;
  config.experiment.model.fault = true;
  const auto heter = train_bsp_coded(SchemeKind::kHeterAware, cluster, model,
                                     data, config);
  const auto cyclic =
      train_bsp_coded(SchemeKind::kCyclic, cluster, model, data, config);
  EXPECT_LT(heter.trace.total_time(), cyclic.trace.total_time());
  // Same iteration count, same loss path: heter reaches the same loss
  // sooner (the essence of Fig. 4).
  EXPECT_NEAR(heter.trace.final_loss(), cyclic.trace.final_loss(), 1e-9);
}

TEST(BspTrainer, NaiveStopsAtFirstFault) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  BspTrainingConfig config = bsp_config(10);
  config.experiment.k = 8;
  config.experiment.s = 0;
  config.experiment.model.num_stragglers = 1;
  config.experiment.model.fault = true;
  const auto result =
      train_bsp_coded(SchemeKind::kNaive, cluster, model, data, config);
  EXPECT_EQ(result.failed_iterations, 1u);
  EXPECT_LT(result.trace.points.back().iteration, 10u);
}

TEST(BspTrainer, RecordEveryThinsTrace) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  BspTrainingConfig config = bsp_config(20);
  config.record_every = 5;
  const auto result = train_bsp_coded(SchemeKind::kHeterAware, cluster, model,
                                      data, config);
  // Points at iterations 0, 5, 10, 15, 20.
  EXPECT_EQ(result.trace.points.size(), 5u);
}

TEST(BspTrainer, RejectsZeroRecordEvery) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  BspTrainingConfig config = bsp_config(4);
  config.record_every = 0;
  EXPECT_THROW(train_serial(model, data, config), std::invalid_argument);
  EXPECT_THROW(train_bsp_ignore_stragglers(cluster, model, data, config),
               std::invalid_argument);
  EXPECT_THROW(train_bsp_coded(SchemeKind::kHeterAware, cluster, model, data,
                               config),
               std::invalid_argument);
}

TEST(BspTrainer, RejectsNonPositiveLearningRate) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  for (const double rate : {0.0, -0.5}) {
    BspTrainingConfig config = bsp_config(4);
    config.learning_rate = rate;
    EXPECT_THROW(train_serial(model, data, config), std::invalid_argument);
    EXPECT_THROW(train_bsp_ignore_stragglers(cluster, model, data, config),
                 std::invalid_argument);
    EXPECT_THROW(train_bsp_coded(SchemeKind::kHeterAware, cluster, model,
                                 data, config),
                 std::invalid_argument);
  }
}

TEST(BspTrainer, TimeToLossMonotoneInTarget) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  BspTrainingConfig config = bsp_config(30);
  config.learning_rate = 0.5;
  const auto result = train_bsp_coded(SchemeKind::kHeterAware, cluster, model,
                                      data, config);
  const double loose = result.trace.time_to_loss(1.0);
  const double tight = result.trace.time_to_loss(0.5);
  EXPECT_LE(loose, tight);
}

TEST(SspTrainer, LossDecreases) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  SspTrainingConfig config;
  config.experiment.iterations = 40;
  config.learning_rate = 0.5;
  const auto result = train_ssp(cluster, model, data, config);
  ASSERT_GE(result.trace.points.size(), 2u);
  EXPECT_LT(result.trace.final_loss(), result.trace.points.front().loss);
}

TEST(SspTrainer, StalenessBoundLimitsClockSpread) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  SspTrainingConfig config;
  config.experiment.iterations = 30;
  config.staleness = 2;
  const auto result = train_ssp(cluster, model, data, config);
  // The spread can exceed the staleness by at most 1 transiently (the
  // in-flight computation that started legally).
  EXPECT_LE(result.mean_clock_spread, 3.0 + 1e-9);
}

TEST(SspTrainer, HeterogeneityCausesBlocking) {
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  SspTrainingConfig config;
  config.experiment.iterations = 30;
  config.staleness = 1;
  // On the heterogeneous Cluster-A the 12-vCPU worker runs 6× faster than
  // the 2-vCPU ones; with staleness 1 it must block regularly — the paper's
  // "reaches the staleness threshold nearly every step".
  const auto result = train_ssp(cluster_a(), model, data, config);
  EXPECT_GT(result.blocked_fraction, 0.1);

  // On a homogeneous cluster with no noise nobody blocks... clocks advance
  // in lockstep.
  const Cluster flat("flat", std::vector<WorkerSpec>(8, {4, 4.0}));
  const auto flat_result = train_ssp(flat, model, data, config);
  EXPECT_LE(flat_result.blocked_fraction, result.blocked_fraction);
}

TEST(SspTrainer, DeterministicForFixedSeed) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  SspTrainingConfig config;
  config.experiment.iterations = 10;
  const auto a = train_ssp(cluster, model, data, config);
  const auto b = train_ssp(cluster, model, data, config);
  ASSERT_EQ(a.trace.points.size(), b.trace.points.size());
  EXPECT_DOUBLE_EQ(a.trace.final_loss(), b.trace.final_loss());
  EXPECT_DOUBLE_EQ(a.trace.total_time(), b.trace.total_time());
}

TEST(SspTrainer, RejectsNonPositiveLearningRateAndZeroRecordEvery) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);
  for (const double rate : {0.0, -0.5}) {
    SspTrainingConfig config;
    config.experiment.iterations = 2;
    config.learning_rate = rate;
    EXPECT_THROW(train_ssp(cluster, model, data, config),
                 std::invalid_argument);
  }
  SspTrainingConfig config;
  config.experiment.iterations = 2;
  config.record_every = 0;
  EXPECT_THROW(train_ssp(cluster, model, data, config),
               std::invalid_argument);
}

TEST(SspTrainer, ConvergesWorseThanBspPerGradientWork) {
  // Same total gradient computations: BSP reaches a lower loss because its
  // updates are exact — the statistical-efficiency gap of Fig. 4.
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(6, 3);

  BspTrainingConfig config = bsp_config(30);
  config.learning_rate = 0.5;
  const auto bsp = train_bsp_coded(SchemeKind::kHeterAware, cluster, model,
                                   data, config);

  SspTrainingConfig ssp_config;
  ssp_config.experiment.iterations = 30;
  ssp_config.learning_rate = 0.5;
  ssp_config.staleness = 3;
  const auto ssp = train_ssp(cluster, model, data, ssp_config);

  EXPECT_LE(bsp.trace.final_loss(), ssp.trace.final_loss() + 0.05);
}

}  // namespace
}  // namespace hgc
