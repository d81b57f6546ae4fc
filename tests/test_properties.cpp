// Cross-scheme property sweeps: for a grid of (scheme, m, s, heterogeneity),
// verify Condition 1 by brute force, exact decode under every straggler
// pattern, and the Theorem 5 time ordering between schemes.
#include <gtest/gtest.h>

#include <cmath>

#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "linalg_reference.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

struct PropertyCase {
  SchemeKind kind;
  std::size_t m;
  std::size_t s;
  double spread;  ///< throughput ratio fastest/slowest
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string name = to_string(info.param.kind);
  for (char& ch : name)
    if (ch == '-') ch = '_';
  return name + "_m" + std::to_string(info.param.m) + "_s" +
         std::to_string(info.param.s) + "_x" +
         std::to_string(static_cast<int>(info.param.spread));
}

class SchemeProperties : public ::testing::TestWithParam<PropertyCase> {
 protected:
  Throughputs make_throughputs(Rng& rng) const {
    const auto& p = GetParam();
    Throughputs c(p.m);
    for (std::size_t i = 0; i < p.m; ++i)
      c[i] = rng.uniform(1.0, std::max(1.0 + 1e-9, p.spread));
    return c;
  }
};

TEST_P(SchemeProperties, Condition1HoldsByBruteForce) {
  const auto& p = GetParam();
  Rng rng(2024 + p.m * 7 + p.s);
  const Throughputs c = make_throughputs(rng);
  const auto scheme = make_scheme(p.kind, c, 2 * p.m, p.s, rng);
  const std::size_t s_eff = scheme->stragglers_tolerated();
  EXPECT_TRUE(satisfies_condition1(scheme->sparse_matrix(), s_eff));
}

TEST_P(SchemeProperties, EveryPatternYieldsExactCoefficients) {
  const auto& p = GetParam();
  Rng rng(4048 + p.m * 11 + p.s);
  const Throughputs c = make_throughputs(rng);
  const auto scheme = make_scheme(p.kind, c, 2 * p.m, p.s, rng);
  const std::size_t m = scheme->num_workers();
  const std::size_t s_eff = scheme->stragglers_tolerated();

  const bool ok = for_each_straggler_pattern(
      m, s_eff, [&](const StragglerSet& pattern) {
        std::vector<bool> received(m, true);
        for (WorkerId w : pattern) received[w] = false;
        for (std::size_t w = 0; w < m; ++w)
          if (scheme->load(w) == 0) received[w] = false;
        const auto a = scheme->decoding_coefficients(received);
        if (!a) return false;
        // supp(a) ⊆ received.
        for (std::size_t w = 0; w < m; ++w)
          if (!received[w] && (*a)[w] != 0.0) return false;
        const Vector ab =
            ref::apply_transpose(scheme->sparse_matrix(), *a);
        for (double v : ab)
          if (std::abs(v - 1.0) > 1e-6) return false;
        return true;
      });
  EXPECT_TRUE(ok);
}

TEST_P(SchemeProperties, WorstCaseTimeRespectsTheorem5Bound) {
  const auto& p = GetParam();
  Rng rng(6072 + p.m * 13 + p.s);
  const Throughputs c = make_throughputs(rng);
  const std::size_t k = 2 * p.m;
  const auto scheme = make_scheme(p.kind, c, k, p.s, rng);
  const auto t = worst_case_time(*scheme, c);
  ASSERT_TRUE(t.has_value());
  // No s-tolerant scheme can beat (s+1)k'/Σc on its own partition count k'.
  const double bound =
      optimal_time_bound(c, scheme->num_partitions(),
                         scheme->stragglers_tolerated());
  EXPECT_GE(*t, bound - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchemeProperties,
    ::testing::Values(
        PropertyCase{SchemeKind::kNaive, 5, 0, 4.0},
        PropertyCase{SchemeKind::kNaive, 8, 0, 8.0},
        PropertyCase{SchemeKind::kCyclic, 5, 1, 4.0},
        PropertyCase{SchemeKind::kCyclic, 6, 2, 6.0},
        PropertyCase{SchemeKind::kCyclic, 8, 3, 8.0},
        PropertyCase{SchemeKind::kFractionalRepetition, 6, 1, 4.0},
        PropertyCase{SchemeKind::kFractionalRepetition, 6, 2, 6.0},
        PropertyCase{SchemeKind::kFractionalRepetition, 8, 3, 8.0},
        PropertyCase{SchemeKind::kHeterAware, 5, 1, 4.0},
        PropertyCase{SchemeKind::kHeterAware, 6, 2, 6.0},
        PropertyCase{SchemeKind::kHeterAware, 7, 1, 1.0},
        PropertyCase{SchemeKind::kHeterAware, 8, 3, 8.0},
        PropertyCase{SchemeKind::kGroupBased, 5, 1, 4.0},
        PropertyCase{SchemeKind::kGroupBased, 6, 2, 6.0},
        PropertyCase{SchemeKind::kGroupBased, 7, 1, 1.0},
        PropertyCase{SchemeKind::kGroupBased, 8, 3, 8.0}),
    case_name);

// Theorem 5 comparison: under heterogeneity, the heter-aware worst case is
// never worse than cyclic's on the same cluster and tolerance (both measured
// in dataset fractions: load/k / c).
class SchemeOrdering
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SchemeOrdering, HeterNeverWorseThanCyclic) {
  const auto [m, s] = GetParam();
  Rng rng(8096 + m * 17 + s);
  for (int trial = 0; trial < 5; ++trial) {
    Throughputs c(m);
    for (double& x : c) x = rng.uniform(1.0, 8.0);
    const auto heter = make_scheme(SchemeKind::kHeterAware, c, 4 * m, s, rng);
    const auto cyclic = make_scheme(SchemeKind::kCyclic, c, m, s, rng);
    const auto t_heter = worst_case_time(*heter, c);
    const auto t_cyclic = worst_case_time(*cyclic, c);
    ASSERT_TRUE(t_heter.has_value());
    ASSERT_TRUE(t_cyclic.has_value());
    // Normalize to dataset fractions (schemes use different k).
    const double f_heter =
        *t_heter / static_cast<double>(heter->num_partitions());
    const double f_cyclic =
        *t_cyclic / static_cast<double>(cyclic->num_partitions());
    // Allow the one-partition rounding slack on heter's side.
    double slack = 0.0;
    for (double x : c)
      slack = std::max(
          slack, 1.0 / (x * static_cast<double>(heter->num_partitions())));
    EXPECT_LE(f_heter, f_cyclic + slack + 1e-9)
        << "m=" << m << " s=" << s << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SchemeOrdering,
                         ::testing::Combine(::testing::Values(5, 6, 8, 10),
                                            ::testing::Values(1, 2)),
                         [](const auto& test_info) {
                           return "m" +
                                  std::to_string(std::get<0>(test_info.param)) +
                                  "_s" +
                                  std::to_string(std::get<1>(test_info.param));
                         });

}  // namespace
}  // namespace hgc
