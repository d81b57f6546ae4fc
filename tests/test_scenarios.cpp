// Tests for delay traces and for scenario scripts run by the experiment
// driver: trace replay (a splice that wraps forever), worker churn, drift
// and correlated bursts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/scheme_cache.hpp"
#include "engine/delay_trace.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "engine/scenario.hpp"
#include "sim/adaptive.hpp"
#include "sim/experiment.hpp"

namespace hgc {
namespace {

using engine::DelayTrace;
using engine::ScenarioScript;

/// The trace-replay scenario: every iteration takes the next trace row,
/// wrapping around the trace.
ScenarioScript replay_of(const DelayTrace& trace) {
  ScenarioScript script;
  script.splice = trace;
  script.splice_repeat = 0;
  return script;
}

/// The churn scenario: only membership events.
ScenarioScript churn_of(std::vector<engine::ChurnEvent> events) {
  ScenarioScript script;
  script.churn = std::move(events);
  return script;
}

TEST(DelayTrace, ParsesCsvWithCommentsAndBlankLines) {
  std::istringstream in(
      "# provenance: crafted by hand\n"
      "0.0, 0.5, 0.0\n"
      "\n"
      "0.25,0.0,-1\n");
  const DelayTrace trace = engine::parse_delay_trace_csv(in);
  EXPECT_EQ(trace.num_iterations(), 2u);
  EXPECT_EQ(trace.num_workers(), 3u);
  EXPECT_DOUBLE_EQ(trace.at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(trace.at(1, 0), 0.25);
  EXPECT_LT(trace.at(1, 2), 0.0);  // fault marker
}

TEST(DelayTrace, NegativeCellsBecomeFaults) {
  std::istringstream in("0.1,-1,0\n");
  const DelayTrace trace = engine::parse_delay_trace_csv(in);
  const IterationConditions cond = trace.conditions(0);
  EXPECT_DOUBLE_EQ(cond.delay[0], 0.1);
  EXPECT_FALSE(cond.faulted[0]);
  EXPECT_TRUE(cond.faulted[1]);
  EXPECT_DOUBLE_EQ(cond.delay[1], 0.0);
  EXPECT_DOUBLE_EQ(cond.speed_factor[2], 1.0);
}

TEST(DelayTrace, ReplayWrapsAroundTheTrace) {
  std::istringstream in("1,1\n2,2\n");
  const DelayTrace trace = engine::parse_delay_trace_csv(in);
  EXPECT_DOUBLE_EQ(trace.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(trace.at(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(trace.at(5, 1), 2.0);
}

TEST(DelayTrace, RejectsMalformedInput) {
  std::istringstream ragged("1,2\n3\n");
  EXPECT_THROW(engine::parse_delay_trace_csv(ragged), std::invalid_argument);
  std::istringstream garbage("1,oops\n");
  EXPECT_THROW(engine::parse_delay_trace_csv(garbage), std::invalid_argument);
  std::istringstream empty("# only a comment\n");
  EXPECT_THROW(engine::parse_delay_trace_csv(empty), std::invalid_argument);
  std::istringstream trailing("1,2x\n");
  EXPECT_THROW(engine::parse_delay_trace_csv(trailing), std::invalid_argument);
}

TEST(DelayTrace, RejectsNonFiniteCells) {
  // std::stod reads these; a delay must be finite (negative = fault).
  for (const std::string cell : {"nan", "-nan", "inf", "INF", "infinity"}) {
    std::istringstream in("0.5,0\n0," + cell + "\n");
    try {
      engine::parse_delay_trace_csv(in);
      ADD_FAILURE() << "accepted delay cell '" << cell << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unparseable delay cell '" + cell + "' on line 2"),
                std::string::npos)
          << what;
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(DelayTrace({{0.0, nan}}), std::invalid_argument);
  EXPECT_THROW(DelayTrace({{0.0, inf}}), std::invalid_argument);
  EXPECT_THROW(DelayTrace({{-inf, 0.0}}), std::invalid_argument);
}

TEST(DelayTrace, RoundTripsThroughCsv) {
  const DelayTrace trace({{0.0, 1.5, -1.0}, {0.25, 0.0, 3.0}});
  std::ostringstream out;
  engine::write_delay_trace_csv(trace, out);
  std::istringstream in(out.str());
  const DelayTrace back = engine::parse_delay_trace_csv(in);
  EXPECT_EQ(back.rows(), trace.rows());
}

TEST(DelayTrace, WriteRoundTripsFullDoublePrecision) {
  // Regression: the writer used operator<<'s default 6 significant digits,
  // so any delay that wasn't short-decimal came back changed after a
  // save/load cycle — breaking the "same trace row drives every scheme"
  // fairness contract. Every double must survive write→parse exactly.
  const DelayTrace trace({{0.1 + 0.2, 1.0 / 3.0, 1.2345678901234567},
                          {1e-17, 123456.789012345, 9.87654321e+12},
                          {-1.0, 0.30000000000000004, 2.5e-300}});
  std::ostringstream out;
  engine::write_delay_trace_csv(trace, out);
  std::istringstream in(out.str());
  const DelayTrace back = engine::parse_delay_trace_csv(in);
  ASSERT_EQ(back.num_iterations(), trace.num_iterations());
  for (std::size_t r = 0; r < trace.num_iterations(); ++r)
    for (std::size_t w = 0; w < trace.num_workers(); ++w)
      EXPECT_EQ(back.at(r, w), trace.at(r, w))
          << "row " << r << ", worker " << w << " did not round-trip";
}

TEST(DelayTrace, LoadsFromFileAndRejectsMissingFile) {
  const std::string path = "delay_trace_test_tmp.csv";
  {
    std::ofstream out(path);
    out << "0.5,0\n0,0.5\n";
  }
  const DelayTrace trace = engine::load_delay_trace_csv(path);
  EXPECT_EQ(trace.num_iterations(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW(engine::load_delay_trace_csv("does_not_exist.csv"),
               std::invalid_argument);
}

TEST(TraceReplay, AbsorbsTracedStragglersLikeTheModel) {
  // Worker 3 is delayed every iteration; s = 1 absorbs it, so heter-aware
  // replays at the ideal time as if the trace were clean.
  const Cluster cluster = cluster_a();
  std::vector<std::vector<double>> rows(10, std::vector<double>(8, 0.0));
  for (auto& row : rows) row[3] = 5.0;
  const DelayTrace trace(std::move(rows));

  ExperimentConfig config;
  config.iterations = 10;
  config.s = 1;
  config.k = 24;
  const auto result = run_experiment(SchemeKind::kHeterAware, cluster, config,
                                     replay_of(trace));
  EXPECT_EQ(result.iterations, 10u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_NEAR(result.iteration_time.mean(), ideal_iteration_time(cluster, 1),
              1e-9);
  EXPECT_NEAR(result.latency.p99(), ideal_iteration_time(cluster, 1), 1e-9);
}

TEST(TraceReplay, FaultRowsKillNaiveButNotCoded) {
  const Cluster cluster = cluster_a();
  std::vector<std::vector<double>> rows(6, std::vector<double>(8, 0.0));
  rows[2][5] = -1.0;  // worker 5 faults on iteration 2 only
  const ScenarioScript script = replay_of(DelayTrace(std::move(rows)));

  ExperimentConfig config;
  config.iterations = 6;
  config.s = 1;
  const auto naive = run_experiment(SchemeKind::kNaive, cluster, config,
                                    script);
  const auto coded = run_experiment(SchemeKind::kHeterAware, cluster, config,
                                    script);
  EXPECT_EQ(naive.failures, 1u);  // naive loses exactly the fault row
  EXPECT_EQ(coded.failures, 0u);
}

TEST(TraceReplay, WrapsAroundTheTrace) {
  const Cluster cluster = cluster_a();
  const ScenarioScript script = replay_of(DelayTrace(
      std::vector<std::vector<double>>(4, std::vector<double>(8, 0.0))));
  ExperimentConfig config;
  config.iterations = 4;  // one pass
  const auto one_pass =
      run_experiment(SchemeKind::kCyclic, cluster, config, script);
  EXPECT_EQ(one_pass.iterations, 4u);

  config.iterations = 10;  // wraps around the 4-row trace
  const auto wrapped =
      run_experiment(SchemeKind::kCyclic, cluster, config, script);
  EXPECT_EQ(wrapped.iterations, 10u);
  EXPECT_NEAR(wrapped.total_time, 2.5 * one_pass.total_time, 1e-9);
}

TEST(TraceReplay, RejectsWidthMismatch) {
  const Cluster cluster = cluster_a();  // 8 workers
  EXPECT_THROW(run_experiment(SchemeKind::kCyclic, cluster, {},
                              replay_of(DelayTrace({{0.0, 0.0, 0.0}}))),
               std::invalid_argument);
}

TEST(Churn, StableMembershipNeverReinstantiates) {
  ExperimentConfig config;
  config.iterations = 20;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 0.2;
  const auto result =
      run_experiment(SchemeKind::kHeterAware, cluster_a(), config, {});
  EXPECT_EQ(result.iterations, 20u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.reinstantiations, 0u);
  EXPECT_EQ(result.epoch_sizes, (std::vector<std::size_t>{8}));
  EXPECT_GT(result.total_time, 0.0);
  EXPECT_EQ(result.latency.count(), 20u);
  EXPECT_LE(result.latency.p50(), result.latency.p99());
}

TEST(Churn, LeaveAndJoinEachReinstantiate) {
  ExperimentConfig config;
  config.iterations = 30;
  // After ~5 virtual seconds worker 7 (the fast one) leaves; later two fresh
  // workers join.
  const auto result = run_experiment(
      SchemeKind::kHeterAware, cluster_a(), config,
      churn_of({{0.05, false, 7, {}},
                {0.30, true, 0, {4, 4.0}},
                {0.30, true, 0, {2, 2.0}}}));
  EXPECT_EQ(result.reinstantiations, 2u);  // both joins land in one rebuild
  EXPECT_EQ(result.epoch_sizes, (std::vector<std::size_t>{8, 7, 9}));
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.iterations, 30u);
}

TEST(Churn, DepartedWorkerCanBeNamedByStableId) {
  ExperimentConfig config;
  config.iterations = 10;
  const auto result = run_experiment(
      SchemeKind::kCyclic, cluster_a(), config,
      churn_of({{0.0, true, 0, {8, 8.0}},      // joins as id 8
                {0.10, false, 8, {}}}));       // and leaves again
  EXPECT_EQ(result.reinstantiations, 2u);
  EXPECT_EQ(result.epoch_sizes, (std::vector<std::size_t>{8, 9, 8}));
}

TEST(Churn, RejectsBadEventStreams) {
  ExperimentConfig config;
  config.iterations = 5;
  EXPECT_THROW(run_experiment(SchemeKind::kCyclic, cluster_a(), config,
                              churn_of({{1.0, false, 3, {}},
                                        {0.5, false, 4, {}}})),  // unsorted
               std::invalid_argument);
  EXPECT_THROW(run_experiment(SchemeKind::kCyclic, cluster_a(), config,
                              churn_of({{0.0, false, 42, {}}})),  // no such id
               std::invalid_argument);
}

TEST(Churn, RefusesToShrinkBelowTolerance) {
  const Cluster tiny("tiny", {{1, 1.0}, {1, 1.0}, {1, 1.0}});
  ExperimentConfig config;
  config.iterations = 5;
  config.s = 1;
  EXPECT_THROW(run_experiment(SchemeKind::kCyclic, tiny, config,
                              churn_of({{0.0, false, 0, {}}})),  // 2 < s + 2
               std::invalid_argument);
}

TEST(ScenarioScript, DriftRampInterpolatesLinearly) {
  engine::DriftWindow drift;
  drift.worker = 0;
  drift.from = 1.0;
  drift.to = 0.5;
  drift.t0 = 2.0;
  drift.t1 = 4.0;
  EXPECT_DOUBLE_EQ(drift.factor_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(drift.factor_at(2.0), 1.0);
  EXPECT_DOUBLE_EQ(drift.factor_at(3.0), 0.75);
  EXPECT_DOUBLE_EQ(drift.factor_at(4.0), 0.5);
  EXPECT_DOUBLE_EQ(drift.factor_at(100.0), 0.5);
}

TEST(ScenarioScript, EmptyScriptMatchesChurnlessRun) {
  // A script with no statements beyond the worker count is exactly a churn
  // run whose only event never comes due.
  const Cluster cluster = cluster_a();
  ScenarioScript script;
  script.workers = 8;
  ExperimentConfig config;
  config.iterations = 15;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 0.2;
  const auto run =
      run_experiment(SchemeKind::kHeterAware, cluster, config, script);
  const auto churn =
      run_experiment(SchemeKind::kHeterAware, cluster, config,
                     churn_of({{1e9, false, 0, {}}}));
  EXPECT_DOUBLE_EQ(run.total_time, churn.total_time);
  EXPECT_EQ(run.failures, churn.failures);
  EXPECT_EQ(churn.reinstantiations, 0u);
  EXPECT_EQ(run.bursts_started, 0u);
}

TEST(ScenarioScript, RejectsWorkerCountMismatch) {
  ScenarioScript script;
  script.workers = 4;  // Cluster-A has 8
  EXPECT_THROW(run_experiment(SchemeKind::kCyclic, cluster_a(), {}, script),
               std::invalid_argument);
  ScenarioScript wide_splice;
  wide_splice.workers = 8;
  wide_splice.splice = DelayTrace({{0.0, 0.0, 0.0}});  // 3 columns
  EXPECT_THROW(
      run_experiment(SchemeKind::kCyclic, cluster_a(), {}, wide_splice),
      std::invalid_argument);
}

TEST(ScenarioScript, SpliceOnlyScriptReplaysExactlyLikeTraceReplay) {
  // With a clean base model, a splice-only script is trace replay: every
  // iteration is one round under the next trace row, and an undecodable
  // round costs the master's give-up timeout (the ideal iteration time).
  const Cluster cluster = cluster_a();
  std::vector<std::vector<double>> rows(6, std::vector<double>(8, 0.0));
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r][r % 8] = 0.3;
  rows[2][5] = -1.0;
  const DelayTrace trace(rows);

  ScenarioScript script = replay_of(trace);
  script.workers = 8;
  ExperimentConfig config;
  config.iterations = 10;
  config.s = 1;
  const double ideal = ideal_iteration_time(cluster, 1);
  for (SchemeKind kind : {SchemeKind::kHeterAware, SchemeKind::kNaive}) {
    const auto scripted = run_experiment(kind, cluster, config, script);

    Rng construction_rng(config.seed);
    const auto scheme =
        make_scheme(kind, cluster.throughputs(), 2 * cluster.size(), config.s,
                    construction_rng);
    RunningStats times;
    std::size_t failures = 0;
    double total_time = 0.0;
    for (std::size_t i = 0; i < config.iterations; ++i) {
      engine::FixedLatencyLink link;
      const engine::RoundOutcome round =
          engine::run_round(*scheme, cluster, trace.conditions(i), link);
      if (!round.decoded) {
        ++failures;
        total_time += ideal;
        continue;
      }
      times.add(round.time);
      total_time += round.time;
    }
    EXPECT_EQ(scripted.failures, failures) << to_string(kind);
    EXPECT_EQ(scripted.iteration_time, times) << to_string(kind);
    EXPECT_DOUBLE_EQ(scripted.total_time, total_time) << to_string(kind);
    if (kind == SchemeKind::kNaive) {
      // Rows 2 and 8 fault worker 5, which naive cannot mask; each one
      // adds exactly one give-up timeout to the decoded rounds' time.
      EXPECT_EQ(scripted.failures, 2u);
      EXPECT_NEAR(scripted.total_time, times.sum() + 2.0 * ideal, 1e-12);
    } else {
      EXPECT_EQ(scripted.failures, 0u);
    }
  }
}

TEST(ScenarioScript, SpliceRepeatStopsContributingAfterItsPasses) {
  // One pass over a one-row splice: iteration 0 is delayed, the rest are
  // clean, so the mean sits strictly between the clean and delayed times.
  const Cluster cluster = cluster_a();
  const double ideal = ideal_iteration_time(cluster, 1);
  std::vector<double> row(8, 0.0);
  row[0] = 5.0 * ideal;

  ScenarioScript once;
  once.workers = 8;
  once.splice = DelayTrace({row});
  once.splice_repeat = 1;
  ExperimentConfig config;
  config.iterations = 4;
  config.s = 1;
  config.k = 24;
  const auto one_pass =
      run_experiment(SchemeKind::kNaive, cluster, config, once);

  ScenarioScript forever = once;
  forever.splice_repeat = 0;
  const auto wrapped =
      run_experiment(SchemeKind::kNaive, cluster, config, forever);
  ScenarioScript clean;
  clean.workers = 8;
  const auto baseline =
      run_experiment(SchemeKind::kNaive, cluster, config, clean);
  // Naive cannot mask the straggler: every wrapped round pays the delayed
  // time D, while one pass pays D once and the clean time C three times.
  const double d = wrapped.total_time / 4.0;
  const double c = baseline.total_time / 4.0;
  EXPECT_GT(d, c);
  EXPECT_NEAR(one_pass.total_time, d + 3.0 * c, 1e-9);
}

TEST(ScenarioScript, DriftSlowsTheDriftedWorker) {
  // Worker 0 collapses to 10% speed from t=0 on. Naive (k = m, everyone
  // must answer) pays the full slowdown every round.
  const Cluster cluster = cluster_a();
  ScenarioScript script;
  script.workers = 8;
  engine::DriftWindow drift;
  drift.worker = 0;
  drift.from = 0.1;
  drift.to = 0.1;
  drift.t0 = 0.0;
  drift.t1 = 1.0;
  script.drifts = {drift};

  ExperimentConfig config;
  config.iterations = 8;
  config.s = 1;
  config.k = 24;
  const auto drifted =
      run_experiment(SchemeKind::kNaive, cluster, config, script);
  ScenarioScript clean;
  clean.workers = 8;
  const auto baseline =
      run_experiment(SchemeKind::kNaive, cluster, config, clean);
  EXPECT_GT(drifted.iteration_time.mean(),
            5.0 * baseline.iteration_time.mean());
}

TEST(ScenarioScript, CorrelatedFaultBurstOverwhelmsToleranceButNotTimeout) {
  // A p=1, effectively-permanent burst faults 3 workers at once; s=1
  // cannot decode any round, and the give-up timeout must keep the clock
  // moving (one ideal round time per failed iteration) instead of pinning
  // it inside the burst window forever.
  const Cluster cluster = cluster_a();
  ScenarioScript script;
  script.workers = 8;
  engine::CorrelatedStragglers burst;
  burst.workers = {0, 1, 2};
  burst.probability = 1.0;
  burst.duration = 1e9;
  burst.fault = true;
  script.bursts = {burst};

  ExperimentConfig config;
  config.iterations = 6;
  config.s = 1;
  const auto run =
      run_experiment(SchemeKind::kHeterAware, cluster, config, script);
  EXPECT_EQ(run.failures, 6u);
  EXPECT_EQ(run.bursts_started, 1u);
  EXPECT_NEAR(run.total_time, 6.0 * ideal_iteration_time(cluster, 1), 1e-9);
}

TEST(ScenarioScript, CorrelatedDelayBurstIsAbsorbedWithinTolerance) {
  // A single-worker burst within s=1 tolerance: heter-aware rides through
  // at the ideal time while the burst still fires.
  const Cluster cluster = cluster_a();
  ScenarioScript script;
  script.workers = 8;
  engine::CorrelatedStragglers burst;
  burst.workers = {3};
  burst.probability = 1.0;
  burst.duration = 1e9;
  burst.delay = 10.0;
  script.bursts = {burst};

  ExperimentConfig config;
  config.iterations = 10;
  config.s = 1;
  config.k = 24;
  const auto run =
      run_experiment(SchemeKind::kHeterAware, cluster, config, script);
  EXPECT_EQ(run.failures, 0u);
  EXPECT_EQ(run.bursts_started, 1u);
  EXPECT_NEAR(run.iteration_time.mean(), ideal_iteration_time(cluster, 1),
              1e-9);
}

/// A script exercising every feature: bursts, drift and one churn leave.
ScenarioScript busy_script() {
  ScenarioScript script;
  script.workers = 8;
  engine::CorrelatedStragglers burst;
  burst.workers = {1, 2};
  burst.probability = 0.3;
  burst.duration = 0.1;
  burst.delay = 0.2;
  script.bursts = {burst};
  engine::DriftWindow drift;
  drift.worker = 4;
  drift.from = 1.0;
  drift.to = 0.6;
  drift.t0 = 0.1;
  drift.t1 = 0.5;
  script.drifts = {drift};
  script.churn.push_back({0.2, false, 7, {}});
  return script;
}

TEST(ScenarioScript, DeterministicForFixedSeed) {
  const Cluster cluster = cluster_a();
  const ScenarioScript script = busy_script();
  ExperimentConfig config;
  config.iterations = 25;
  config.model.fluctuation_sigma = 0.05;
  config.seed = 7;
  const auto a = run_experiment(SchemeKind::kHeterAware, cluster, config,
                                script);
  const auto b = run_experiment(SchemeKind::kHeterAware, cluster, config,
                                script);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.bursts_started, b.bursts_started);
  EXPECT_EQ(a.reinstantiations, 1u);
  EXPECT_DOUBLE_EQ(a.latency.p95(), b.latency.p95());
}

TEST(Churn, DeterministicForFixedSeed) {
  ExperimentConfig config;
  config.iterations = 25;
  config.model.num_stragglers = 1;
  config.model.fluctuation_sigma = 0.05;
  const ScenarioScript script = churn_of({{0.10, false, 2, {}}});
  const auto a =
      run_experiment(SchemeKind::kHeterAware, cluster_a(), config, script);
  const auto b =
      run_experiment(SchemeKind::kHeterAware, cluster_a(), config, script);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.reinstantiations, b.reinstantiations);
  EXPECT_DOUBLE_EQ(a.latency.p95(), b.latency.p95());
}

/// Every SchemeSummary field, compared exactly.
void expect_same_summary(const SchemeSummary& a, const SchemeSummary& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.iteration_time, b.iteration_time);
  EXPECT_EQ(a.resource_usage, b.resource_usage);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.reinstantiations, b.reinstantiations);
  EXPECT_EQ(a.bursts_started, b.bursts_started);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.epoch_sizes, b.epoch_sizes);
}

TEST(ScenarioScript, SchemeCacheIsTransparentWithAndWithoutChurn) {
  // A churn-free script reads its scheme from the shared cache; a churn
  // script, or an adaptive hook that may rebuild, bypasses it (their
  // rebuilds continue the construction stream).
  // Either way the summary must equal the cache-off run field for field,
  // with estimation noise on so the cache key carries drawn estimates.
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 30;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 0.1;
  config.model.fluctuation_sigma = 0.05;
  config.estimation_sigma = 0.2;
  config.decoding_cache_capacity = 16;
  ScenarioScript no_churn = busy_script();
  no_churn.churn.clear();
  const ScenarioScript churn = busy_script();

  SchemeCache cache;
  ExperimentConfig cached = config;
  cached.scheme_cache = &cache;
  for (SchemeKind kind : {SchemeKind::kCyclic, SchemeKind::kHeterAware,
                          SchemeKind::kGroupBased}) {
    const std::size_t misses = cache.misses();
    expect_same_summary(run_experiment(kind, cluster, cached, no_churn),
                        run_experiment(kind, cluster, config, no_churn));
    EXPECT_EQ(cache.misses(), misses + 1) << to_string(kind);
    expect_same_summary(run_experiment(kind, cluster, cached, churn),
                        run_experiment(kind, cluster, config, churn));
    EXPECT_EQ(cache.misses(), misses + 1) << to_string(kind);
    AdaptivePolicy policy;
    policy.recode_every = 5;  // cold start: rebuilds fire
    AdaptiveRecoder with_cache(policy, cluster.size());
    AdaptiveRecoder without_cache(policy, cluster.size());
    const SchemeSummary adaptive =
        run_experiment(kind, cluster, cached, no_churn, with_cache.hook());
    expect_same_summary(adaptive, run_experiment(kind, cluster, config,
                                                 no_churn,
                                                 without_cache.hook()));
    EXPECT_GT(adaptive.reinstantiations, 0u) << to_string(kind);
    EXPECT_EQ(cache.misses(), misses + 1) << to_string(kind);
  }
}

}  // namespace
}  // namespace hgc
