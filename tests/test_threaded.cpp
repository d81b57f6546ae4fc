// Tests for the real-thread BSP runtime: correctness under concurrency,
// straggler drops, and agreement with the serial reference — plus the
// parallel sweep runtime's determinism contract (same grid, any thread
// count, identical ResultTable).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>

#include "core/scheme_factory.hpp"
#include "exec/figures.hpp"
#include "exec/sweep.hpp"
#include "runtime/sim_trainer.hpp"
#include "runtime/threaded_trainer.hpp"
#include "training_reference.hpp"

namespace hgc {
namespace {

Dataset small_data(std::uint64_t seed = 123) {
  Rng rng(seed);
  return make_gaussian_classification(48, 5, 3, 2.5, rng);
}

ThreadedTrainingConfig fast_config() {
  ThreadedTrainingConfig config;
  config.iterations = 8;
  config.learning_rate = 0.3;
  config.time_scale = 0.0;  // no physical sleeping: fastest possible test
  return config;
}

TEST(ThreadedTrainer, MatchesSerialTrajectory) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(5, 3);
  Rng rng(131);
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  const ThreadedTrainingConfig config = fast_config();
  const auto threaded =
      train_bsp_threaded(*scheme, cluster, model, data, config);

  BspTrainingConfig serial_config;
  serial_config.experiment.iterations = config.iterations;
  serial_config.experiment.seed = config.seed;
  serial_config.learning_rate = config.learning_rate;
  const auto serial = train_serial(model, data, serial_config);

  ASSERT_EQ(threaded.final_params.size(), serial.final_params.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < serial.final_params.size(); ++i)
    worst = std::max(
        worst, std::abs(threaded.final_params[i] - serial.final_params[i]));
  EXPECT_LT(worst, 1e-6);
}

TEST(ThreadedTrainer, SurvivesFaultedWorkers) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(5, 3);
  Rng rng(132);
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  ThreadedTrainingConfig config = fast_config();
  config.straggler_model.num_stragglers = 1;
  config.straggler_model.fault = true;
  const auto result =
      train_bsp_threaded(*scheme, cluster, model, data, config);
  // Every iteration completed and the loss went down despite one silent
  // worker per iteration.
  EXPECT_EQ(result.trace.points.back().iteration, config.iterations);
  EXPECT_LT(result.trace.final_loss(), result.trace.points.front().loss);
}

TEST(ThreadedTrainer, RefusesFaultsBeyondTolerance) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(5, 3);
  Rng rng(133);
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  ThreadedTrainingConfig config = fast_config();
  config.straggler_model.num_stragglers = 2;  // > s = 1
  config.straggler_model.fault = true;
  EXPECT_THROW(train_bsp_threaded(*scheme, cluster, model, data, config),
               std::invalid_argument);
}

TEST(ThreadedTrainer, RejectsNonPositiveLearningRate) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(5, 3);
  Rng rng(138);
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  for (const double rate : {0.0, -0.3}) {
    ThreadedTrainingConfig config = fast_config();
    config.learning_rate = rate;
    EXPECT_THROW(train_bsp_threaded(*scheme, cluster, model, data, config),
                 std::invalid_argument);
  }
}

TEST(ThreadedTrainer, GroupSchemeWorksWithThreads) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(5, 3);
  Rng rng(134);
  const auto scheme = make_scheme(SchemeKind::kGroupBased,
                                  cluster.throughputs(), 24, 1, rng);
  ThreadedTrainingConfig config = fast_config();
  config.straggler_model.num_stragglers = 1;
  config.straggler_model.delay_seconds = 0.2;
  config.time_scale = 1e-3;  // physical delays so stragglers really lag
  const auto result =
      train_bsp_threaded(*scheme, cluster, model, data, config);
  EXPECT_EQ(result.trace.points.back().iteration, config.iterations);
  EXPECT_LT(result.trace.final_loss(), result.trace.points.front().loss);
}

TEST(ThreadedTrainer, DelayedStragglersGetDiscarded) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(5, 3);
  Rng rng(135);
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  ThreadedTrainingConfig config = fast_config();
  config.iterations = 6;
  config.straggler_model.num_stragglers = 1;
  config.straggler_model.delay_seconds = 0.5;
  config.time_scale = 2e-3;  // delayed worker arrives ~1ms late
  const auto result =
      train_bsp_threaded(*scheme, cluster, model, data, config);
  // The delayed results from earlier iterations eventually arrive and are
  // dropped (not required — timing dependent — but the run must finish and
  // train correctly regardless).
  EXPECT_EQ(result.trace.points.back().iteration, config.iterations);
  EXPECT_LT(result.trace.final_loss(), result.trace.points.front().loss);
}

TEST(ThreadedTrainer, NaiveSchemeNeedsAllWorkers) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(5, 3);
  Rng rng(136);
  const auto scheme =
      make_scheme(SchemeKind::kNaive, cluster.throughputs(), 8, 0, rng);
  const auto result =
      train_bsp_threaded(*scheme, cluster, model, data, fast_config());
  EXPECT_EQ(result.trace.points.back().iteration, 8u);
}

TEST(ThreadedTrainer, WallClockTimesAreMonotone) {
  const Cluster cluster = cluster_a();
  const Dataset data = small_data();
  SoftmaxRegression model(5, 3);
  Rng rng(137);
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  const auto result =
      train_bsp_threaded(*scheme, cluster, model, data, fast_config());
  for (std::size_t i = 1; i < result.trace.points.size(); ++i)
    EXPECT_GE(result.trace.points[i].time, result.trace.points[i - 1].time);
}

TEST(SweepDeterminism, IdenticalResultsAtOneFourAndHardwareThreads) {
  // The exec/ contract: a SweepGrid's ResultTable is bit-identical at any
  // thread count. Exercise a grid with every axis kind in play — two
  // schemes, two models (one resolved against ideal time), two seeds, an
  // estimation-error axis — and compare the byte-exact CSV export.
  exec::SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kCyclic, SchemeKind::kHeterAware,
                  SchemeKind::kGroupBased};
  grid.sigmas = {0.0, 0.2};
  grid.seeds = {1, 2};
  grid.iterations = 12;
  exec::StragglerAxis none;
  exec::StragglerAxis delayed;
  delayed.delay_factor = 2.0;
  delayed.fluctuation_sigma = 0.05;
  grid.models = {none, delayed};

  const auto csv_at = [&grid](std::size_t threads) {
    std::ostringstream os;
    exec::run_sweep(grid, {.threads = threads}).to_csv(os);
    return os.str();
  };
  const std::string serial = csv_at(1);
  const std::string four = csv_at(4);
  const std::string hardware = csv_at(std::max<std::size_t>(
      1, std::thread::hardware_concurrency()));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, hardware);
}

TEST(SweepDeterminism, ScenarioCellsAreDeterministicToo) {
  exec::SweepGrid grid = exec::scenarios_grid(15);
  grid.schemes = {SchemeKind::kHeterAware, SchemeKind::kGroupBased};
  const auto csv_at = [&grid](std::size_t threads) {
    std::ostringstream os;
    exec::run_sweep(grid, {.threads = threads}).to_csv(os);
    return os.str();
  };
  EXPECT_EQ(csv_at(1), csv_at(4));
}

}  // namespace
}  // namespace hgc
