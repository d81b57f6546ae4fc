// Paper-scale consistency: the full Table II clusters (8..58 workers) at
// realistic partition counts — scheme construction, robustness spot checks,
// simulator/analytic agreement, and Monte Carlo validation that the Eq. 3
// worst case really is the ceiling of what the simulator can produce.
#include <gtest/gtest.h>

#include <cmath>

#include "core/group_based.hpp"
#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "groups_reference.hpp"
#include "linalg_reference.hpp"
#include "sim/experiment.hpp"

namespace hgc {
namespace {

class PaperScale : public ::testing::TestWithParam<std::size_t> {
 protected:
  Cluster cluster() const {
    switch (GetParam()) {
      case 0:
        return cluster_a();
      case 1:
        return cluster_b();
      case 2:
        return cluster_c();
      default:
        return cluster_d();
    }
  }
};

TEST_P(PaperScale, HeterAwareBuildsAndBalances) {
  const Cluster c = cluster();
  const std::size_t k = exact_partition_count(c, 1);
  Rng rng(301);
  const auto scheme =
      make_scheme(SchemeKind::kHeterAware, c.throughputs(), k, 1, rng);
  // Exactly integral shares: every worker's time is identical.
  const Throughputs t = c.throughputs();
  const double t0 = static_cast<double>(scheme->load(0)) / t[0];
  for (WorkerId w = 1; w < c.size(); ++w)
    EXPECT_NEAR(static_cast<double>(scheme->load(w)) / t[w], t0, 1e-9)
        << c.name() << " worker " << w;
}

TEST_P(PaperScale, SpotCheckStragglerPatterns) {
  // Brute force over all patterns is infeasible at m = 58; check every
  // singleton and a band of adjacent pairs (s = 2 code).
  const Cluster c = cluster();
  const std::size_t m = c.size();
  const std::size_t k = 2 * m;
  Rng rng(302);
  const auto scheme =
      make_scheme(SchemeKind::kHeterAware, c.throughputs(), k, 2, rng);
  for (WorkerId w = 0; w < m; ++w) {
    std::vector<bool> received(m, true);
    received[w] = false;
    if (w + 1 < m) received[w + 1] = false;
    const auto a = scheme->decoding_coefficients(received);
    ASSERT_TRUE(a.has_value()) << c.name() << " pair at " << w;
    const Vector ab = ref::apply_transpose(scheme->sparse_matrix(), *a);
    for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-6);
  }
}

TEST_P(PaperScale, SimulatorAgreesWithCompletionTime) {
  // The event simulator under clean conditions must reproduce the analytic
  // completion_time for the empty straggler set.
  const Cluster c = cluster();
  const std::size_t k = exact_partition_count(c, 1);
  Rng rng(303);
  const auto scheme =
      make_scheme(SchemeKind::kHeterAware, c.throughputs(), k, 1, rng);

  IterationConditions cond;
  cond.speed_factor.assign(c.size(), 1.0);
  cond.delay.assign(c.size(), 0.0);
  cond.faulted.assign(c.size(), false);
  engine::FixedLatencyLink link;
  const auto sim = engine::run_round(*scheme, c, cond, link);
  ASSERT_TRUE(sim.decoded);

  // completion_time works in partition units; convert to seconds.
  const auto analytic = completion_time(*scheme, c.throughputs(), {});
  ASSERT_TRUE(analytic.has_value());
  EXPECT_NEAR(sim.time, *analytic / static_cast<double>(k), 1e-9);
}

TEST_P(PaperScale, MonteCarloNeverExceedsWorstCase) {
  // Random fault patterns within the budget can never beat Eq. 3's ceiling
  // (in partition units both sides use the same arithmetic).
  const Cluster c = cluster();
  const std::size_t m = c.size();
  const std::size_t s = 2;
  Rng rng(304);
  const auto scheme =
      make_scheme(SchemeKind::kHeterAware, c.throughputs(), 2 * m, s, rng);

  // Analytic ceiling: evaluate T(B, S) for the worst single pattern found
  // by randomized search (full enumeration is C(58, 2) = 1653 — fine).
  const auto ceiling = worst_case_time(*scheme, c.throughputs());
  ASSERT_TRUE(ceiling.has_value());

  Rng pattern_rng(305);
  for (int trial = 0; trial < 200; ++trial) {
    const auto victims = pattern_rng.sample_without_replacement(m, s);
    const auto t = completion_time(*scheme, c.throughputs(),
                                   StragglerSet(victims.begin(), victims.end()));
    ASSERT_TRUE(t.has_value());
    EXPECT_LE(*t, *ceiling + 1e-9) << c.name() << " trial " << trial;
  }
}

TEST_P(PaperScale, GroupSchemeScalesAndStaysDisjoint) {
  const Cluster c = cluster();
  const std::size_t k = exact_partition_count(c, 1);
  Rng rng(306);
  GroupBasedScheme scheme(c.throughputs(), k, 1, rng);
  EXPECT_TRUE(are_disjoint(scheme.groups()));
  EXPECT_LE(scheme.groups().size(), 2u);  // ≤ s + 1
  for (const Group& g : scheme.groups())
    EXPECT_TRUE(is_exact_cover(scheme.assignment(), k, g));
}

TEST_P(PaperScale, ExperimentHarnessRunsAllSchemes) {
  const Cluster c = cluster();
  ExperimentConfig config;
  config.s = 1;
  config.k = exact_partition_count(c, 1);
  config.iterations = 10;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 0.05;
  config.model.fluctuation_sigma = 0.05;
  const auto summaries = compare_schemes(paper_schemes(), c, config);
  for (const auto& summary : summaries) {
    EXPECT_EQ(summary.failures, 0u) << c.name() << " " << summary.scheme;
    EXPECT_GT(summary.mean_time(), 0.0);
    EXPECT_GT(summary.resource_usage.mean(), 0.0);
    EXPECT_LE(summary.resource_usage.mean(), 1.0 + 1e-9);
  }
}

std::string cluster_case_name(
    const ::testing::TestParamInfo<std::size_t>& info) {
  switch (info.param) {
    case 0:
      return "ClusterA";
    case 1:
      return "ClusterB";
    case 2:
      return "ClusterC";
    default:
      return "ClusterD";
  }
}

INSTANTIATE_TEST_SUITE_P(TableII, PaperScale,
                         ::testing::Values(0u, 1u, 2u, 3u),
                         cluster_case_name);

}  // namespace
}  // namespace hgc
