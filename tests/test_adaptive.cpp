// Tests for online throughput estimation and adaptive re-coding.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/estimator.hpp"
#include "sim/adaptive.hpp"

namespace hgc {
namespace {

TEST(ThroughputEstimator, FirstObservationReplacesPrior) {
  ThroughputEstimator est({1.0, 1.0}, 0.2);
  est.observe(0, 0.5, 0.125);  // 4 datasets/s
  EXPECT_DOUBLE_EQ(est.estimates()[0], 4.0);
  EXPECT_DOUBLE_EQ(est.estimates()[1], 1.0);
  est.observe(0, 0.5, 0.25);  // 2 datasets/s, now blended: 0.2·2 + 0.8·4
  EXPECT_DOUBLE_EQ(est.estimates()[0], 0.2 * 2.0 + 0.8 * 4.0);
}

TEST(ThroughputEstimator, EwmaConvergesToTrueRate) {
  ThroughputEstimator est({1.0}, 0.3);
  for (int i = 0; i < 50; ++i) est.observe(0, 0.1, 0.1 / 8.0);  // 8/s
  EXPECT_NEAR(est.estimates()[0], 8.0, 1e-6);
}

TEST(ThroughputEstimator, IgnoresUnusableSamples) {
  ThroughputEstimator est({2.0}, 0.5);
  est.observe(0, 0.0, 1.0);
  est.observe(0, 0.1, 0.0);
  est.observe(0, 0.1, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(est.estimates()[0], 2.0);
  // None of them counted: the first usable sample still replaces the prior.
  est.observe(0, 0.5, 0.125);
  EXPECT_DOUBLE_EQ(est.estimates()[0], 4.0);
}

TEST(ThroughputEstimator, RelativeDeviation) {
  ThroughputEstimator est({2.0, 4.0}, 0.5);
  EXPECT_DOUBLE_EQ(est.relative_deviation({2.0, 4.0}), 0.0);
  EXPECT_NEAR(est.relative_deviation({1.0, 4.0}), 1.0, 1e-12);  // 2 vs 1
  EXPECT_NEAR(est.relative_deviation({2.0, 5.0}), 0.2, 1e-12);
}

TEST(ThroughputEstimator, RejectsBadConstruction) {
  EXPECT_THROW(ThroughputEstimator({}, 0.5), std::invalid_argument);
  EXPECT_THROW(ThroughputEstimator({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(ThroughputEstimator({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(ThroughputEstimator({-1.0}, 0.5), std::invalid_argument);
}

/// One adaptive run: run_experiment's summary plus what the hook recorded.
struct AdaptiveRun {
  SchemeSummary summary;
  std::vector<double> times;
  Throughputs estimates;
};

AdaptiveRun adaptive_run(const Cluster& cluster, const ExperimentConfig& config,
                         const AdaptivePolicy& policy,
                         const engine::ScenarioScript& script = {},
                         SchemeKind kind = SchemeKind::kHeterAware) {
  AdaptiveRecoder recoder(policy, cluster.size());
  AdaptiveRun run;
  run.summary = run_experiment(kind, cluster, config, script, recoder.hook());
  run.times = recoder.iteration_times();
  run.estimates = recoder.estimates();
  return run;
}

TEST(Adaptive, ColdStartLearnsHeterogeneity) {
  // Master starts believing all workers are equal (a cyclic-like code) and
  // must converge to near-optimal via telemetry alone.
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 200;
  config.k = 48;
  AdaptivePolicy policy;
  policy.recode_every = 10;
  const auto result = adaptive_run(cluster, config, policy);

  EXPECT_GT(result.summary.reinstantiations, 0u);
  EXPECT_EQ(result.summary.failures, 0u);
  const double early = window_mean(result.times, 0, 10);
  const double late = window_mean(result.times, 150, 200);
  EXPECT_LT(late, 0.6 * early);  // large win once loads match speeds
  // Converged near the true optimum.
  EXPECT_NEAR(late, ideal_iteration_time(cluster, 1), 0.15 * early);
  // Estimates ended close to truth (relative error under 10%).
  const Throughputs truth = cluster.throughputs();
  for (std::size_t w = 0; w < truth.size(); ++w)
    EXPECT_NEAR(result.estimates[w] / truth[w], 1.0, 0.1) << "worker " << w;
}

TEST(Adaptive, StaticSchemeNeverRecodes) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 50;
  AdaptivePolicy policy;
  policy.recode_every = 0;
  const auto result = adaptive_run(cluster, config, policy);
  EXPECT_EQ(result.summary.reinstantiations, 0u);
  EXPECT_EQ(result.times.size(), 50u);
}

TEST(Adaptive, RecoversFromDrift) {
  // A fast worker permanently slows 4× mid-run *while transient stragglers
  // keep occurring*. The static scheme must burn its straggler budget on
  // the drifted worker every iteration, so the transient victim's delay
  // surfaces; re-coding rebalances the drifted worker back into the fold
  // and keeps the budget for the transients. (Without transient noise,
  // straggler tolerance alone absorbs a single drifted worker — adaptive
  // only pays off once the budget is contended, which is the realistic
  // regime.) The drift is keyed on virtual time: 100 ideal iterations.
  const Cluster cluster = cluster_a();
  const double ideal = ideal_iteration_time(cluster, 1);
  ExperimentConfig config;
  config.iterations = 300;
  config.k = 48;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 4.0 * ideal;
  engine::ScenarioScript script;
  const double at = 100.0 * ideal;
  script.drifts = {{7, 1.0, 0.25, at, at}};  // the 12-vCPU machine
  AdaptivePolicy policy;
  policy.initial_estimates = cluster.throughputs();  // warm start
  AdaptivePolicy static_policy = policy;
  static_policy.recode_every = 0;

  const auto adaptive = adaptive_run(cluster, config, policy, script);
  const auto fixed = adaptive_run(cluster, config, static_policy, script);

  // Before drift both run near the optimum.
  EXPECT_NEAR(window_mean(adaptive.times, 0, 100),
              window_mean(fixed.times, 0, 100),
              0.2 * window_mean(fixed.times, 0, 100));
  // After settling, adaptive clearly beats static.
  const double adaptive_late = window_mean(adaptive.times, 200, 300);
  const double fixed_late = window_mean(fixed.times, 200, 300);
  EXPECT_LT(adaptive_late, 0.8 * fixed_late);
  EXPECT_GT(adaptive.summary.reinstantiations, 0u);
}

TEST(Adaptive, ThresholdSuppressesNeedlessRecodes) {
  // Warm start with exact estimates and no drift: deviations stay below the
  // threshold, so no recode should ever fire.
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 100;
  config.model.fluctuation_sigma = 0.02;
  AdaptivePolicy policy;
  policy.initial_estimates = cluster.throughputs();
  policy.recode_threshold = 0.10;
  const auto result = adaptive_run(cluster, config, policy);
  EXPECT_EQ(result.summary.reinstantiations, 0u);
}

TEST(Adaptive, WindowMeanValidation) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 10;
  const auto result = adaptive_run(cluster, config, AdaptivePolicy{});
  EXPECT_THROW(window_mean(result.times, 5, 3), std::invalid_argument);
  EXPECT_THROW(window_mean(result.times, 0, 11), std::invalid_argument);
  EXPECT_GT(window_mean(result.times, 0, 10), 0.0);
}

TEST(Adaptive, WindowMeanIsNanWithoutADecodedRound) {
  // A window with no decoded round has no mean; 0.0 would read as the
  // fastest possible window.
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 10;
  config.model.num_stragglers = 1;
  config.model.fault = true;  // naive never decodes under fail-stop
  const auto result =
      adaptive_run(cluster, config, AdaptivePolicy{}, {}, SchemeKind::kNaive);
  EXPECT_EQ(result.summary.failures, 10u);
  EXPECT_TRUE(std::isnan(window_mean(result.times, 0, 10)));
  const auto decoded = adaptive_run(cluster, config, AdaptivePolicy{}, {},
                                    SchemeKind::kHeterAware);
  EXPECT_TRUE(std::isnan(window_mean(decoded.times, 4, 4)));
  EXPECT_FALSE(std::isnan(window_mean(decoded.times, 0, 10)));
}

TEST(Adaptive, RejectsMismatchedWorkerSets) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 5;
  AdaptivePolicy policy;
  policy.initial_estimates = {1.0, 2.0};
  EXPECT_THROW(adaptive_run(cluster, config, policy), std::invalid_argument);
  // The estimator tracks a fixed worker set; churn changes it mid-run.
  engine::ScenarioScript churn;
  engine::ChurnEvent join;
  join.join = true;
  join.spec = cluster.worker(0);
  churn.churn = {join};
  EXPECT_THROW(adaptive_run(cluster, config, AdaptivePolicy{}, churn),
               std::invalid_argument);
}

}  // namespace
}  // namespace hgc
