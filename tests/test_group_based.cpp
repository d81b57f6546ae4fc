// Tests for the group-based scheme (Alg. 3): Theorem 6 robustness, the three
// decoding paths, and the early-decode advantage over heter-aware.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/group_based.hpp"
#include "core/heter_aware.hpp"
#include "core/robustness.hpp"
#include "groups_reference.hpp"
#include "linalg_reference.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

TEST(GroupBased, PaperExampleFindsTwoGroups) {
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  ASSERT_EQ(scheme.groups().size(), 2u);
  EXPECT_EQ(scheme.groups()[0], (Group{0, 1, 4}));
  EXPECT_EQ(scheme.groups()[1], (Group{2, 3}));
  // P = s + 1 = 2: every worker is in a group, no residual sub-code.
  EXPECT_TRUE(scheme.sub_code().empty());
  // Group rows are all-ones on their supports.
  for (const Group& g : scheme.groups())
    for (WorkerId w : g)
      for (PartitionId p : scheme.assignment()[w])
        EXPECT_DOUBLE_EQ(ref::at(scheme.sparse_matrix(), w, p), 1.0);
}

TEST(GroupBased, SatisfiesCondition1) {
  Rng rng(42);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  EXPECT_TRUE(satisfies_condition1(scheme.sparse_matrix(), 1));
}

TEST(GroupBased, DecodesFromSingleCompleteGroup) {
  Rng rng(43);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  // Only group {2,3} has arrived — 2 of 5 results suffice.
  std::vector<bool> received = {false, false, true, true, false};
  const auto a = scheme.decoding_coefficients(received);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, (Vector{0, 0, 1, 1, 0}));
  const Vector ab = ref::apply_transpose(scheme.sparse_matrix(), *a);
  for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(GroupBased, QuorumsAreGroupsPlusGlobal) {
  Rng rng(44);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  // P = s + 1 = 2 groups and no sub-code: one quorum per group plus the
  // global active − s = 4.
  ASSERT_EQ(scheme.groups().size(), 2u);
  ASSERT_TRUE(scheme.sub_code().empty());
  const auto& quorums = scheme.quorums();
  ASSERT_EQ(quorums.size(), 3u);
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_EQ(quorums[g].workers, scheme.groups()[g]);
    EXPECT_EQ(quorums[g].need, scheme.groups()[g].size());
  }
  EXPECT_TRUE(quorums[2].workers.empty());
  EXPECT_EQ(quorums[2].need, 4u);
  std::size_t smallest = quorums[0].need;
  for (const DecodeQuorum& q : quorums) smallest = std::min(smallest, q.need);
  EXPECT_EQ(smallest, 2u);  // group {2,3}
}

TEST(GroupBased, EveryStragglerPatternDecodes) {
  Rng rng(45);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  for (std::size_t straggler = 0; straggler < 5; ++straggler) {
    std::vector<bool> received(5, true);
    received[straggler] = false;
    const auto a = scheme.decoding_coefficients(received);
    ASSERT_TRUE(a.has_value()) << "straggler " << straggler;
    EXPECT_DOUBLE_EQ((*a)[straggler], 0.0);
    const Vector ab = ref::apply_transpose(scheme.sparse_matrix(), *a);
    for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-8);
  }
}

TEST(GroupBased, ResidualSubCodePath) {
  Rng rng(46);
  // Uniform-ish throughputs with k = m and s = 2 typically leave P < s+1,
  // exercising the Alg.1 sub-code branch.
  const Throughputs c = {3, 3, 3, 3, 3, 3};
  GroupBasedScheme scheme(c, 6, 2, rng);
  EXPECT_TRUE(satisfies_condition1(scheme.sparse_matrix(), 2));
  const auto t = worst_case_time(scheme, c);
  ASSERT_TRUE(t.has_value());
  if (!scheme.sub_code().empty()) {
    EXPECT_EQ(scheme.sub_code().stragglers_tolerated() + scheme.groups().size(),
              2u);
  }
}

TEST(GroupBased, NoGroupsDegeneratesToHeterAware) {
  Rng rng(47);
  // Throughputs engineered so no exact tiling exists: prime-ish counts.
  const Throughputs c = {3, 5, 7, 9};
  GroupBasedScheme scheme(c, 12, 1, rng);
  // Whether or not groups exist, the scheme must stay robust and optimal-ish.
  EXPECT_TRUE(satisfies_condition1(scheme.sparse_matrix(), 1));
  if (scheme.groups().empty()) {
    EXPECT_FALSE(scheme.sub_code().empty());
    EXPECT_EQ(scheme.sub_code().stragglers_tolerated(), 1u);
  }
}

TEST(GroupBased, WorstCaseMatchesHeterAware) {
  Rng rng(48);
  const Throughputs c = {1, 2, 3, 4, 4};
  GroupBasedScheme group(c, 7, 1, rng);
  HeterAwareScheme heter(c, 7, 1, rng);
  const auto tg = worst_case_time(group, c);
  const auto th = worst_case_time(heter, c);
  ASSERT_TRUE(tg.has_value());
  ASSERT_TRUE(th.has_value());
  // Same allocation -> same per-worker times -> same worst case (Theorem 6
  // discussion: group-based is also optimal).
  EXPECT_NEAR(*tg, *th, 1e-12);
}

TEST(GroupBased, EarlyDecodeBeatsHeterAwareUnderNoise) {
  Rng rng(49);
  // When a fast group finishes first, group-based decodes with fewer
  // results than heter-aware's m - s. Simulate a "fast group" arrival order
  // directly: the complete group {2,3} plus nothing else.
  GroupBasedScheme group({1, 2, 3, 4, 4}, 7, 1, rng);
  HeterAwareScheme heter({1, 2, 3, 4, 4}, 7, 1, rng);
  std::vector<bool> received = {false, false, true, true, false};
  EXPECT_TRUE(group.decoding_coefficients(received).has_value());
  EXPECT_FALSE(heter.decoding_coefficients(received).has_value());
}

// Sweep: robustness + exact decode for all patterns across configurations.
struct GroupCase {
  std::size_t m, s, k;
};

class GroupBasedSweep : public ::testing::TestWithParam<GroupCase> {};

TEST_P(GroupBasedSweep, RobustToAllPatterns) {
  const auto [m, s, k] = GetParam();
  Rng rng(900 + m * 41 + s * 11 + k);
  for (int trial = 0; trial < 5; ++trial) {
    Throughputs c(m);
    for (double& x : c) x = rng.uniform(1.0, 8.0);
    GroupBasedScheme scheme(c, k, s, rng);
    EXPECT_LE(scheme.groups().size(), s + 1);
    EXPECT_TRUE(are_disjoint(scheme.groups()));

    bool all_ok = for_each_straggler_pattern(
        m, s, [&](const StragglerSet& pattern) {
          std::vector<bool> received(m, true);
          for (WorkerId w : pattern) received[w] = false;
          for (std::size_t w = 0; w < m; ++w)
            if (scheme.load(w) == 0) received[w] = false;
          const auto a = scheme.decoding_coefficients(received);
          if (!a) return false;
          const Vector ab =
              ref::apply_transpose(scheme.sparse_matrix(), *a);
          for (double v : ab)
            if (std::abs(v - 1.0) > 1e-6) return false;
          return true;
        });
    EXPECT_TRUE(all_ok) << "m=" << m << " s=" << s << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GroupBasedSweep,
    ::testing::Values(GroupCase{4, 1, 8}, GroupCase{5, 1, 7},
                      GroupCase{5, 2, 10}, GroupCase{6, 1, 12},
                      GroupCase{6, 2, 6}, GroupCase{7, 2, 14},
                      GroupCase{8, 1, 16}, GroupCase{8, 3, 8},
                      GroupCase{10, 2, 20}),
    [](const auto& test_info) {
      return "m" + std::to_string(test_info.param.m) + "_s" +
             std::to_string(test_info.param.s) + "_k" + std::to_string(test_info.param.k);
    });

}  // namespace
}  // namespace hgc
