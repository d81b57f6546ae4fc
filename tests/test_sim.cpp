// Tests for timing-only rounds and run_experiment.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "core/scheme_factory.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "sim/adaptive.hpp"
#include "sim/experiment.hpp"
#include "sim/iteration.hpp"

namespace hgc {
namespace {

IterationConditions clean_conditions(std::size_t m) {
  IterationConditions cond;
  cond.speed_factor.assign(m, 1.0);
  cond.delay.assign(m, 0.0);
  cond.faulted.assign(m, false);
  return cond;
}

/// One timing-only round over a constant-latency link.
engine::RoundOutcome timing_round(const CodingScheme& scheme,
                                  const Cluster& cluster,
                                  const IterationConditions& conditions,
                                  double latency = 0.0) {
  engine::FixedLatencyLink link(latency);
  return engine::run_round(scheme, cluster, conditions, link);
}

TEST(TimingRound, HeterAwareHitsIdealTime) {
  Rng rng(71);
  const Cluster cluster = cluster_a();
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  const auto result =
      timing_round(*scheme, cluster, clean_conditions(8));
  ASSERT_TRUE(result.decoded);
  // Perfect proportional allocation: decode at (s+1)/Σc.
  EXPECT_NEAR(result.time, ideal_iteration_time(cluster, 1), 1e-9);
}

TEST(TimingRound, NaiveWaitsForSlowestWorker) {
  Rng rng(72);
  const Cluster cluster = cluster_a();
  const auto scheme =
      make_scheme(SchemeKind::kNaive, cluster.throughputs(), 8, 0, rng);
  const auto result =
      timing_round(*scheme, cluster, clean_conditions(8));
  ASSERT_TRUE(result.decoded);
  // Naive: k = m = 8 equal partitions; slowest worker (c=2) takes
  // (1/8)/2 = 0.0625 s.
  EXPECT_NEAR(result.time, 0.0625, 1e-12);
  EXPECT_EQ(result.results_used, 8u);
}

TEST(TimingRound, CyclicPinnedToSlowestSurvivor) {
  Rng rng(73);
  const Cluster cluster = cluster_a();
  const auto scheme =
      make_scheme(SchemeKind::kCyclic, cluster.throughputs(), 8, 1, rng);
  const auto result =
      timing_round(*scheme, cluster, clean_conditions(8));
  ASSERT_TRUE(result.decoded);
  // Cyclic load = s+1 = 2 of 8 partitions; needs m−s = 7 results, so the
  // 2nd slowest worker (c = 2) gates: (2/8)/2 = 0.125 s.
  EXPECT_NEAR(result.time, 0.125, 1e-12);
}

TEST(TimingRound, FaultKillsNaiveButNotCoded) {
  Rng rng(74);
  const Cluster cluster = cluster_a();
  auto cond = clean_conditions(8);
  cond.faulted[7] = true;  // fastest worker dies

  const auto naive =
      make_scheme(SchemeKind::kNaive, cluster.throughputs(), 8, 0, rng);
  EXPECT_FALSE(timing_round(*naive, cluster, cond).decoded);

  const auto heter = make_scheme(SchemeKind::kHeterAware,
                                 cluster.throughputs(), 24, 1, rng);
  const auto result = timing_round(*heter, cluster, cond);
  EXPECT_TRUE(result.decoded);
  EXPECT_NEAR(result.time, ideal_iteration_time(cluster, 1), 1e-9);
}

TEST(TimingRound, DelayOnStragglerIsAbsorbed) {
  Rng rng(75);
  const Cluster cluster = cluster_a();
  const auto heter = make_scheme(SchemeKind::kHeterAware,
                                 cluster.throughputs(), 24, 1, rng);
  auto cond = clean_conditions(8);
  cond.delay[3] = 100.0;  // one delayed worker, s = 1
  const auto result = timing_round(*heter, cluster, cond);
  ASSERT_TRUE(result.decoded);
  EXPECT_NEAR(result.time, ideal_iteration_time(cluster, 1), 1e-9);
}

TEST(TimingRound, CommLatencyShiftsEverything) {
  Rng rng(76);
  const Cluster cluster = cluster_a();
  const auto heter = make_scheme(SchemeKind::kHeterAware,
                                 cluster.throughputs(), 24, 1, rng);
  const auto result =
      timing_round(*heter, cluster, clean_conditions(8), 0.01);
  ASSERT_TRUE(result.decoded);
  EXPECT_NEAR(result.time, ideal_iteration_time(cluster, 1) + 0.01, 1e-9);
}

TEST(TimingRound, ResourceUsageNearOneWhenBalanced) {
  Rng rng(77);
  const Cluster cluster = cluster_a();
  const auto heter = make_scheme(SchemeKind::kHeterAware,
                                 cluster.throughputs(), 24, 1, rng);
  const auto result =
      timing_round(*heter, cluster, clean_conditions(8));
  ASSERT_TRUE(result.decoded);
  // Every worker computes until the common decode time.
  EXPECT_GT(result.resource_usage, 0.95);
  EXPECT_LE(result.resource_usage, 1.0 + 1e-12);
}

TEST(TimingRound, NaiveResourceUsageLowOnHeterogeneousCluster) {
  Rng rng(78);
  const Cluster cluster = cluster_a();
  const auto naive =
      make_scheme(SchemeKind::kNaive, cluster.throughputs(), 8, 0, rng);
  const auto result =
      timing_round(*naive, cluster, clean_conditions(8));
  ASSERT_TRUE(result.decoded);
  // Fast workers idle while the slowest finishes: usage = mean(c_min/c_i).
  EXPECT_LT(result.resource_usage, 0.6);
}

TEST(TimingRound, RejectsMismatchedSizes) {
  Rng rng(79);
  const Cluster cluster = cluster_a();
  const auto scheme =
      make_scheme(SchemeKind::kNaive, cluster.throughputs(), 8, 0, rng);
  EXPECT_THROW(
      timing_round(*scheme, cluster, clean_conditions(5)),
      std::invalid_argument);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.s = 1;
  config.iterations = 50;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 0.1;
  config.model.fluctuation_sigma = 0.05;
  const auto a = run_experiment(SchemeKind::kHeterAware, cluster, config);
  const auto b = run_experiment(SchemeKind::kHeterAware, cluster, config);
  EXPECT_DOUBLE_EQ(a.mean_time(), b.mean_time());
  EXPECT_DOUBLE_EQ(a.resource_usage.mean(), b.resource_usage.mean());
}

TEST(Experiment, SeedChangesResults) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 50;
  config.model.fluctuation_sigma = 0.1;
  const auto a = run_experiment(SchemeKind::kHeterAware, cluster, config);
  config.seed = 777;
  const auto b = run_experiment(SchemeKind::kHeterAware, cluster, config);
  EXPECT_NE(a.mean_time(), b.mean_time());
}

TEST(Experiment, CompareRunsAllSchemes) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 30;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 0.05;
  const auto summaries =
      compare_schemes(paper_schemes(), cluster, config);
  ASSERT_EQ(summaries.size(), 4u);
  EXPECT_EQ(summaries[0].scheme, "naive");
  EXPECT_EQ(summaries[3].scheme, "group-based");
  for (const auto& s : summaries) EXPECT_EQ(s.iterations, 30u);
}

TEST(Experiment, HeterBeatsCyclicOnHeterogeneousCluster) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 100;
  config.model.num_stragglers = 1;
  config.model.fault = true;  // full stragglers: the paper's 3× setting
  config.k = exact_partition_count(cluster, config.s);  // 24: exact Eq. 5
  const auto summaries = compare_schemes(
      {SchemeKind::kCyclic, SchemeKind::kHeterAware}, cluster, config);
  const double speedup = summaries[0].mean_time() / summaries[1].mean_time();
  // Expected ratio ≈ mean(c)/min(c) = 3: the paper's headline speedup.
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 3.3);
  EXPECT_EQ(summaries[0].failures, 0u);
  EXPECT_EQ(summaries[1].failures, 0u);
}

TEST(Experiment, NaiveFailsUnderFaults) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 20;
  config.model.num_stragglers = 1;
  config.model.fault = true;
  const auto summary = run_experiment(SchemeKind::kNaive, cluster, config);
  EXPECT_EQ(summary.failures, 20u);
  EXPECT_TRUE(summary.ever_failed());
}

/// Records every round a run shows its hook, then forwards to `inner`,
/// whose initial basis and rebuild requests it passes through. `starts` is
/// each round's start on the virtual clock, with `giveup` charged per
/// undecodable round as run_experiment does.
struct Recorder {
  Recorder() = default;
  Recorder(const Recorder&) = delete;  // hooks point at it
  Recorder& operator=(const Recorder&) = delete;

  double giveup = 0.0;
  double clock = 0.0;
  std::vector<std::size_t> iterations;
  std::vector<IterationConditions> conditions;
  std::vector<bool> decoded;
  std::vector<double> starts;

  RoundHook hook(RoundHook inner = {}) {
    RoundHook hook;
    hook.initial_basis = inner.initial_basis;
    hook.after_round = [this, next = std::move(inner.after_round)](
                           const RoundView& round) {
      iterations.push_back(round.iteration);
      conditions.push_back(round.conditions);
      decoded.push_back(round.outcome.decoded);
      starts.push_back(clock);
      clock += round.outcome.decoded ? round.outcome.time : giveup;
      return next ? next(round) : std::nullopt;
    };
    return hook;
  }
};

TEST(Experiment, FairnessContractIdenticalConditionsAcrossSchemes) {
  // The fairness contract of compare_schemes: every scheme run under the
  // same ExperimentConfig seed must observe the exact same per-iteration
  // straggler victims, fault flags, delays, and fluctuations — even though
  // schemes consume different amounts of construction randomness and
  // estimation noise is switched on.
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 40;
  config.model.num_stragglers = 2;
  config.model.delay_seconds = 0.3;
  config.model.fluctuation_sigma = 0.1;
  config.estimation_sigma = 0.2;

  Recorder base;
  run_experiment(SchemeKind::kNaive, cluster, config, {}, base.hook());
  const std::vector<IterationConditions>& base_log = base.conditions;
  ASSERT_EQ(base_log.size(), 40u);

  for (SchemeKind kind : {SchemeKind::kCyclic, SchemeKind::kHeterAware,
                          SchemeKind::kGroupBased}) {
    Recorder recorder;
    run_experiment(kind, cluster, config, {}, recorder.hook());
    const std::vector<IterationConditions>& log = recorder.conditions;
    ASSERT_EQ(log.size(), base_log.size()) << to_string(kind);
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].speed_factor, base_log[i].speed_factor)
          << to_string(kind) << " iteration " << i;
      EXPECT_EQ(log[i].delay, base_log[i].delay)
          << to_string(kind) << " iteration " << i;
      EXPECT_EQ(log[i].faulted, base_log[i].faulted)
          << to_string(kind) << " iteration " << i;
    }
  }
}

TEST(Experiment, FairnessContractHoldsForAdaptiveRuns) {
  // Re-coding changes the scheme, never the condition stream: a static and
  // a cold-start adaptive run see identical composed conditions on every
  // round that starts before the drift window in both runs, and afterwards
  // differ at most in the drifted worker's speed factor.
  const Cluster cluster = cluster_a();
  const double ideal = ideal_iteration_time(cluster, 1);
  ExperimentConfig config;
  config.iterations = 120;
  config.k = 48;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 4.0 * ideal;
  config.model.fluctuation_sigma = 0.05;
  engine::ScenarioScript script;
  const double t0 = 40.0 * ideal;
  script.drifts = {{7, 1.0, 0.25, t0, t0}};

  AdaptivePolicy policy;
  policy.recode_every = 5;
  AdaptiveRecoder recoder(policy, cluster.size());
  Recorder adaptive;
  adaptive.giveup = ideal;
  Recorder fixed;
  fixed.giveup = ideal;
  const SchemeSummary adaptive_run =
      run_experiment(SchemeKind::kHeterAware, cluster, config, script,
                     adaptive.hook(recoder.hook()));
  run_experiment(SchemeKind::kHeterAware, cluster, config, script,
                 fixed.hook());
  EXPECT_GT(adaptive_run.reinstantiations, 0u);
  ASSERT_EQ(adaptive.conditions.size(), 120u);
  ASSERT_EQ(fixed.conditions.size(), 120u);

  std::size_t before_drift = 0;
  for (std::size_t i = 0; i < 120; ++i) {
    IterationConditions a = adaptive.conditions[i];
    IterationConditions b = fixed.conditions[i];
    if (adaptive.starts[i] < t0 && fixed.starts[i] < t0) {
      ++before_drift;
    } else {
      a.speed_factor[7] = b.speed_factor[7] = 0.0;
    }
    EXPECT_EQ(a.speed_factor, b.speed_factor) << "iteration " << i;
    EXPECT_EQ(a.delay, b.delay) << "iteration " << i;
    EXPECT_EQ(a.faulted, b.faulted) << "iteration " << i;
  }
  EXPECT_GT(before_drift, 10u);
  EXPECT_LT(before_drift, 120u);
}

TEST(Experiment, HookFiresOncePerRoundIncludingUndecodable) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 20;
  config.model.num_stragglers = 1;
  config.model.fault = true;  // naive never decodes
  Recorder recorder;
  const SchemeSummary summary = run_experiment(SchemeKind::kNaive, cluster,
                                               config, {}, recorder.hook());
  EXPECT_EQ(summary.failures, 20u);
  ASSERT_EQ(recorder.iterations.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(recorder.iterations[i], i);
    EXPECT_FALSE(recorder.decoded[i]);
  }
  EXPECT_EQ(summary.reinstantiations, 0u);
}

TEST(Experiment, ResolvePartitionsDefault) {
  ExperimentConfig config;
  EXPECT_EQ(resolve_partitions(config, 8), 16u);
  config.k = 24;
  EXPECT_EQ(resolve_partitions(config, 8), 24u);
}

TEST(Experiment, ExactPartitionCountTableII) {
  // Smallest k with integral Eq. 5 shares: k·c_i·(s+1)/Σc ∈ N for all i.
  EXPECT_EQ(exact_partition_count(cluster_a(), 1), 12u);   // k·c_i/24
  EXPECT_EQ(exact_partition_count(cluster_b(), 1), 29u);   // k·c_i/58
  EXPECT_EQ(exact_partition_count(cluster_c(), 1), 161u);  // k·c_i/161
  EXPECT_EQ(exact_partition_count(cluster_d(), 1), 81u);   // k·c_i/324
  // s = 2 on Cluster-A: 3k·c_i/48 = k·c_i/16 integral already at k = m = 8.
  EXPECT_EQ(exact_partition_count(cluster_a(), 2), 8u);
}

TEST(Experiment, ExactPartitionCountGivesOptimalTime) {
  for (const Cluster& cluster : paper_clusters()) {
    ExperimentConfig config;
    config.s = 1;
    config.k = exact_partition_count(cluster, 1);
    config.iterations = 3;
    const auto summary =
        run_experiment(SchemeKind::kHeterAware, cluster, config);
    EXPECT_NEAR(summary.mean_time(), ideal_iteration_time(cluster, 1), 1e-9)
        << cluster.name();
  }
}

}  // namespace
}  // namespace hgc
