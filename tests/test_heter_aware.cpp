// Tests for the heter-aware scheme: Theorem 4 (robustness), Theorem 5
// (optimality), and decode exactness under every pattern.
#include <gtest/gtest.h>

#include "core/heter_aware.hpp"
#include "core/robustness.hpp"
#include "linalg_reference.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

TEST(HeterAware, PaperExampleLoads) {
  Rng rng(31);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  EXPECT_EQ(scheme.load(0), 1u);
  EXPECT_EQ(scheme.load(1), 2u);
  EXPECT_EQ(scheme.load(2), 3u);
  EXPECT_EQ(scheme.load(3), 4u);
  EXPECT_EQ(scheme.load(4), 4u);
}

TEST(HeterAware, SatisfiesCondition1) {
  Rng rng(32);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  EXPECT_TRUE(satisfies_condition1(scheme.sparse_matrix(), 1));
}

TEST(HeterAware, AchievesTheorem5Optimum) {
  Rng rng(33);
  // Exactly proportional setup: every worker finishes at the same time, so
  // T(B) equals the lower bound (s+1)k/Σc — in partition units the sim uses
  // load/c directly.
  const Throughputs c = {1, 2, 3, 4, 4};
  HeterAwareScheme scheme(c, 7, 1, rng);
  const auto t = worst_case_time(scheme, c);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, optimal_time_bound(c, 7, 1), 1e-12);
}

TEST(HeterAware, BalancedTimesPerWorker) {
  Rng rng(34);
  const Throughputs c = {2, 4, 6, 8};
  HeterAwareScheme scheme(c, 10, 1, rng);
  // With perfectly proportional counts each t_i = load/c is equal.
  const double t0 =
      static_cast<double>(scheme.load(0)) / c[0];
  for (WorkerId w = 1; w < 4; ++w)
    EXPECT_NEAR(static_cast<double>(scheme.load(w)) / c[w], t0, 1e-12);
}

TEST(HeterAware, QuorumExcludesIdleWorkers) {
  Rng rng(35);
  // Worker 0 is so slow it gets zero partitions at this granularity.
  const Throughputs c = {0.01, 10, 10, 10};
  HeterAwareScheme scheme(c, 4, 1, rng);
  EXPECT_EQ(scheme.load(0), 0u);
  // 3 active workers, s = 1 -> 2 results needed.
  ASSERT_EQ(scheme.quorums().size(), 1u);
  EXPECT_TRUE(scheme.quorums()[0].workers.empty());
  EXPECT_EQ(scheme.quorums()[0].need, 2u);
  std::vector<bool> received = {false, true, true, false};
  const auto a = scheme.decoding_coefficients(received);
  ASSERT_TRUE(a.has_value());
  const Vector ab = ref::apply_transpose(scheme.sparse_matrix(), *a);
  for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-8);
}

TEST(HeterAware, WorstCaseBeatsCyclicUnderHeterogeneity) {
  Rng rng(36);
  // k = 25 makes Eq. 5 exactly integral (n_i = c_i since Σc = 50 = k(s+1)),
  // so T(B) hits the Theorem 5 bound of 1.0 partition-unit. Cyclic with its
  // k = m = 8 is pinned to the slowest worker: 2 partitions / c_min = 2.0.
  // In dataset fractions: heter 1/25 = 0.04 vs cyclic 2/8 = 0.25 (6.25×).
  const Throughputs c = {1, 1, 4, 4, 8, 8, 12, 12};
  HeterAwareScheme heter(c, 25, 1, rng);
  const auto t_heter = worst_case_time(heter, c);
  ASSERT_TRUE(t_heter.has_value());
  EXPECT_NEAR(*t_heter, optimal_time_bound(c, 25, 1), 1e-9);
  EXPECT_LT(*t_heter / 25.0, 2.0 / 8.0);
}

// Sweep: random throughputs, every straggler pattern up to s, exact decode
// and Condition 1.
struct HeterCase {
  std::size_t m, s, k;
};

class HeterSweep : public ::testing::TestWithParam<HeterCase> {};

TEST_P(HeterSweep, RobustAndOptimal) {
  const auto [m, s, k] = GetParam();
  Rng rng(500 + m * 31 + s * 17 + k);
  for (int trial = 0; trial < 5; ++trial) {
    Throughputs c(m);
    for (double& x : c) x = rng.uniform(1.0, 6.0);
    HeterAwareScheme scheme(c, k, s, rng);
    EXPECT_TRUE(satisfies_condition1(scheme.sparse_matrix(), s));

    const auto t = worst_case_time(scheme, c);
    ASSERT_TRUE(t.has_value());
    // Rounding can push T(B) above the continuous bound, but never below,
    // and by at most one partition on the busiest worker.
    const double bound = optimal_time_bound(c, k, s);
    EXPECT_GE(*t, bound - 1e-9);
    double slack = 0.0;
    for (double x : c) slack = std::max(slack, 1.0 / x);
    EXPECT_LE(*t, bound + slack + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HeterSweep,
    ::testing::Values(HeterCase{4, 1, 8}, HeterCase{5, 1, 7},
                      HeterCase{5, 2, 10}, HeterCase{6, 1, 6},
                      HeterCase{6, 2, 12}, HeterCase{7, 1, 14},
                      HeterCase{8, 2, 8}, HeterCase{9, 2, 18}),
    [](const auto& test_info) {
      return "m" + std::to_string(test_info.param.m) + "_s" +
             std::to_string(test_info.param.s) + "_k" + std::to_string(test_info.param.k);
    });

}  // namespace
}  // namespace hgc
