// Tests for Algorithm 2: find_disjoint_groups (exact covers, pruned to
// pairwise-disjoint groups).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "cluster/cluster.hpp"
#include "core/allocation.hpp"
#include "core/groups.hpp"
#include "groups_reference.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

// The k-bit-mask DFS and the full-rescan pruning that core/groups.cpp
// replaced, kept verbatim as an oracle: find_disjoint_groups must return
// exactly prune_groups(find_all_groups(...)), including where a search cap
// cuts the DFS short.
namespace oracle {
namespace {

/// Fixed-size bitset over k partitions backed by 64-bit words.
class PartitionMask {
 public:
  explicit PartitionMask(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  void set(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }

  bool any_overlap(const PartitionMask& other) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      if (words_[w] & other.words_[w]) return true;
    return false;
  }

  bool is_subset_of(const PartitionMask& other) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      if (words_[w] & ~other.words_[w]) return false;
    return true;
  }

  bool test(std::size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  void add(const PartitionMask& other) {
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] |= other.words_[w];
  }

  void remove(const PartitionMask& other) {
    for (std::size_t w = 0; w < words_.size(); ++w)
      words_[w] &= ~other.words_[w];
  }

  bool empty() const {
    for (std::uint64_t w : words_)
      if (w) return false;
    return true;
  }

  /// Index of the lowest set bit; bits_ if none.
  std::size_t lowest() const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      if (words_[w])
        return w * 64 +
               static_cast<std::size_t>(std::countr_zero(words_[w]));
    return bits_;
  }

 private:
  std::size_t bits_;
  std::vector<std::uint64_t> words_;
};

struct GroupSearch {
  const std::vector<PartitionMask>& worker_masks;
  const std::vector<std::vector<WorkerId>>& holders;
  const GroupSearchLimits& limits;
  std::vector<Group>& out;
  std::size_t nodes = 0;

  bool exhausted() const {
    return out.size() >= limits.max_groups || nodes >= limits.max_nodes;
  }

  void dfs(PartitionMask& remaining, Group& chosen) {
    if (exhausted()) return;
    ++nodes;
    if (remaining.empty()) {
      // All partitions covered: `chosen` is an exact cover.
      out.push_back(chosen);
      return;
    }
    const std::size_t lowest = remaining.lowest();
    // Branch on the lowest uncovered partition: exactly one worker in any
    // cover supplies it, so every cover is enumerated exactly once.
    for (WorkerId w : holders[lowest]) {
      const PartitionMask& mask = worker_masks[w];
      if (!mask.is_subset_of(remaining)) continue;
      chosen.push_back(w);
      remaining.remove(mask);
      dfs(remaining, chosen);
      remaining.add(mask);
      chosen.pop_back();
      if (exhausted()) return;
    }
  }
};

}  // namespace

std::vector<Group> find_all_groups(const Assignment& assignment,
                                   std::size_t k,
                                   const GroupSearchLimits& limits) {
  HGC_REQUIRE(k > 0, "need at least one partition");
  const std::size_t m = assignment.size();

  std::vector<PartitionMask> worker_masks;
  worker_masks.reserve(m);
  for (std::size_t w = 0; w < m; ++w) {
    PartitionMask mask(k);
    for (PartitionId p : assignment[w]) {
      HGC_REQUIRE(p < k, "partition id out of range");
      mask.set(p);
    }
    worker_masks.push_back(std::move(mask));
  }

  std::vector<std::vector<WorkerId>> holders(k);
  for (std::size_t w = 0; w < m; ++w)
    for (PartitionId p : assignment[w]) holders[p].push_back(w);

  std::vector<Group> groups;
  PartitionMask remaining(k);
  for (std::size_t p = 0; p < k; ++p) remaining.set(p);
  Group chosen;
  GroupSearch search{worker_masks, holders, limits, groups};
  search.dfs(remaining, chosen);

  for (Group& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end());
  return groups;
}

std::vector<Group> prune_groups(std::vector<Group> groups) {
  auto intersects = [](const Group& a, const Group& b) {
    // Both sorted: linear merge scan.
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] == b[j]) return true;
      if (a[i] < b[j])
        ++i;
      else
        ++j;
    }
    return false;
  };

  while (true) {
    const std::size_t n = groups.size();
    std::vector<std::size_t> conflicts(n, 0);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (intersects(groups[i], groups[j])) {
          ++conflicts[i];
          ++conflicts[j];
          any = true;
        }
    if (!any) break;

    // Remove the group with the most conflicts; break ties toward the larger
    // group (harder to complete at runtime), then the later index.
    std::size_t victim = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (conflicts[i] > conflicts[victim] ||
          (conflicts[i] == conflicts[victim] &&
           groups[i].size() >= groups[victim].size()))
        victim = i;
    }
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  return groups;
}

}  // namespace oracle

TEST(FindDisjointGroups, PaperExample1Groups) {
  // Example 1 allocation: W0:{0} W1:{1,2} W2:{3,4,5} W3:{0,1,2,6}
  // W4:{3,4,5,6}. Exact covers: {W0,W1,W4} and {W2,W3}, already disjoint.
  const auto assignment =
      cyclic_assignment(std::vector<std::size_t>{1, 2, 3, 4, 4}, 7);
  const auto groups = find_disjoint_groups(assignment, 7);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (Group{0, 1, 4}));
  EXPECT_EQ(groups[1], (Group{2, 3}));
  EXPECT_TRUE(is_exact_cover(assignment, 7, groups[0]));
  EXPECT_TRUE(is_exact_cover(assignment, 7, groups[1]));
}

TEST(FindDisjointGroups, SingleWorkerHoldingEverything) {
  const Assignment assignment = {{0, 1, 2}, {0}, {1, 2}};
  const auto groups = find_disjoint_groups(assignment, 3);
  // {W0} alone and {W1, W2} are both exact covers.
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (Group{0}));
  EXPECT_EQ(groups[1], (Group{1, 2}));
}

TEST(FindDisjointGroups, NoGroupsWhenNothingTiles) {
  // Overlapping supports that can never partition D exactly.
  const Assignment assignment = {{0, 1}, {1, 2}, {0, 2}};
  EXPECT_TRUE(find_disjoint_groups(assignment, 3).empty());
}

TEST(FindDisjointGroups, IgnoresEmptyWorkers) {
  const Assignment assignment = {{}, {0}, {1}, {}};
  const auto groups = find_disjoint_groups(assignment, 2);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (Group{1, 2}));
}

TEST(FindDisjointGroups, EnumeratesEachCoverOnce) {
  // Two disjoint tilings sharing no structure: {0},{1} and {0,1}.
  const Assignment assignment = {{0}, {1}, {0, 1}};
  const auto groups = find_disjoint_groups(assignment, 2);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (Group{0, 1}));
  EXPECT_EQ(groups[1], (Group{2}));
}

TEST(FindDisjointGroups, RespectsSolutionCap) {
  // Every pair {i, i+5} tiles: 25 covers, of which a greedy prune keeps
  // several disjoint ones. Capped at 3 the search finds {0,5}, {0,6} and
  // {0,7}, which all share worker 0: the later ones go, {0,5} stays.
  Assignment assignment;
  for (int i = 0; i < 5; ++i) assignment.push_back({0});
  for (int i = 0; i < 5; ++i) assignment.push_back({1});
  GroupSearchLimits limits;
  limits.max_groups = 3;
  EXPECT_EQ(find_disjoint_groups(assignment, 2, limits),
            (std::vector<Group>{{0, 5}}));
  EXPECT_GT(find_disjoint_groups(assignment, 2).size(), 1u);
}

TEST(FindDisjointGroups, WorksBeyond64Partitions) {
  // 130 partitions, alternating between two complementary workers.
  const std::size_t k = 130;
  Assignment assignment(2);
  for (std::size_t p = 0; p < k; ++p)
    assignment[p % 2].push_back(p);
  const auto groups = find_disjoint_groups(assignment, k);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (Group{0, 1}));
}

TEST(FindDisjointGroups, RemovesMostConflictingGroup) {
  // W0:{0} W1:{1} W2:{2} W3:{1,2} W4:{0,2}. Exact covers: {0,1,2}, {0,3}
  // and {1,4}. {0,1,2} intersects both others, which are disjoint, so
  // pruning drops the big one.
  const Assignment assignment = {{0}, {1}, {2}, {1, 2}, {0, 2}};
  const auto groups = find_disjoint_groups(assignment, 3);
  EXPECT_EQ(groups, (std::vector<Group>{{0, 3}, {1, 4}}));
  EXPECT_TRUE(are_disjoint(groups));
}

TEST(AreDisjoint, DetectsSharedWorker) {
  EXPECT_FALSE(are_disjoint({{0, 1}, {1, 2}}));
  EXPECT_TRUE(are_disjoint({{0, 1}, {2, 3}}));
  EXPECT_TRUE(are_disjoint({}));
}

TEST(IsExactCover, RejectsOverAndUnderCoverage) {
  const Assignment assignment = {{0, 1}, {1}, {}};
  EXPECT_FALSE(is_exact_cover(assignment, 2, Group{0, 1}));  // 1 twice
  EXPECT_FALSE(is_exact_cover(assignment, 2, Group{1}));     // 0 missing
  EXPECT_TRUE(is_exact_cover(assignment, 2, Group{0}));
}

TEST(IsExactCover, RejectsOutOfRangeIds) {
  const Assignment assignment = {{0}};
  EXPECT_FALSE(is_exact_cover(assignment, 1, Group{5}));
}

// Property: on allocator-produced supports, every kept group is an exact
// cover, and the kept groups are pairwise disjoint.
class GroupSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(GroupSweep, FoundGroupsAreCoversAndPruneDisjoint) {
  const auto [m, s] = GetParam();
  Rng rng(700 + m * 13 + s);
  const std::size_t k = 2 * m;
  for (int trial = 0; trial < 10; ++trial) {
    Throughputs c(m);
    for (double& x : c) x = rng.uniform(1.0, 8.0);
    const auto assignment = cyclic_assignment(heter_aware_counts(c, k, s), k);
    const auto groups = find_disjoint_groups(assignment, k);
    for (const Group& g : groups)
      EXPECT_TRUE(is_exact_cover(assignment, k, g));
    EXPECT_TRUE(are_disjoint(groups));
    EXPECT_LE(groups.size(), s + 1);  // ≤ replication factor
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GroupSweep,
                         ::testing::Combine(::testing::Values(4, 6, 8, 12, 16),
                                            ::testing::Values(1, 2, 3)),
                         [](const auto& test_info) {
                           return "m" + std::to_string(std::get<0>(test_info.param)) +
                                  "_s" + std::to_string(std::get<1>(test_info.param));
                         });

TEST(FindDisjointGroups, RejectsWorkerListingAPartitionTwice) {
  // A repeated partition would let a worker "cover" it twice; the search
  // must refuse the input rather than return non-covers.
  const Assignment assignment = {{0, 0}, {1}};
  try {
    find_disjoint_groups(assignment, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 0 lists partition 0"), std::string::npos)
        << what;
  }
  EXPECT_THROW(find_disjoint_groups(Assignment{{0}, {1, 2, 1}}, 3),
               std::invalid_argument);
}

// --- Equivalence with the oracle ----------------------------------------

Assignment heter_assignment(const Throughputs& c, std::size_t k,
                            std::size_t s) {
  return cyclic_assignment(heter_aware_counts(c, k, s), k);
}

/// find_disjoint_groups returns the oracle's exact ordered kept list.
void expect_matches_oracle(const Assignment& assignment, std::size_t k,
                           const GroupSearchLimits& limits = {}) {
  EXPECT_EQ(find_disjoint_groups(assignment, k, limits),
            oracle::prune_groups(oracle::find_all_groups(assignment, k, limits)));
}

TEST(GroupsOracle, PaperClusters) {
  const Cluster clusters[] = {cluster_a(), cluster_b(), cluster_c(),
                              cluster_d()};
  for (const Cluster& cluster : clusters)
    for (std::size_t s = 1; s <= 3; ++s) {
      const std::size_t k = exact_partition_count(cluster, s);
      SCOPED_TRACE("m=" + std::to_string(cluster.size()) +
                   " s=" + std::to_string(s) + " k=" + std::to_string(k));
      expect_matches_oracle(heter_assignment(cluster.throughputs(), k, s), k);
    }
  // Cluster-D at s = 2 is the paper case where the 256-cover cap binds.
  const Cluster d = cluster_d();
  const std::size_t k = exact_partition_count(d, 2);
  const Assignment assignment = heter_assignment(d.throughputs(), k, 2);
  EXPECT_EQ(oracle::find_all_groups(assignment, k, {}).size(),
            GroupSearchLimits{}.max_groups);
  EXPECT_EQ(find_disjoint_groups(assignment, k).size(), 1u);
}

TEST(GroupsOracle, ScaleClusters) {
  for (std::size_t m : {58, 100, 1000, 10000}) {
    SCOPED_TRACE("m=" + std::to_string(m));
    const std::size_t k = 2 * m;
    expect_matches_oracle(
        heter_assignment(scale_cluster(m).throughputs(), k, 2), k);
  }
}

TEST(GroupsOracle, RandomHeterAwareCounts) {
  Rng rng(1601);
  for (int trial = 0; trial < 300; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(2, 30));
    const auto s = static_cast<std::size_t>(
        rng.uniform_int(1, std::min<std::int64_t>(3, static_cast<std::int64_t>(m) - 1)));
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(m),
                        3 * static_cast<std::int64_t>(m)));
    Throughputs c(m);
    for (double& x : c) x = rng.uniform(1.0, 8.0);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_oracle(heter_assignment(c, k, s), k);
  }
}

TEST(GroupsOracle, RandomNonCyclicSupports) {
  // Arbitrary distinct-partition supports: covers need not come out of the
  // DFS in lexicographic order, so the final sort must still apply.
  Rng rng(1602);
  for (int trial = 0; trial < 500; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 8));
    Assignment assignment(m);
    for (auto& partitions : assignment)
      for (PartitionId p = 0; p < k; ++p)
        if (rng.bernoulli(0.35)) partitions.push_back(p);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_oracle(assignment, k);
  }
}

TEST(GroupsOracle, LimitsThatBindMidSearch) {
  const Cluster d = cluster_d();
  const std::size_t kd = exact_partition_count(d, 2);
  const std::size_t k100 = 200;
  const Assignment supports[] = {
      heter_assignment(d.throughputs(), kd, 2),
      heter_assignment(scale_cluster(100).throughputs(), k100, 2),
      cyclic_assignment(std::vector<std::size_t>{1, 2, 3, 4, 4}, 7),
  };
  const std::size_t ks[] = {kd, k100, 7};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t max_nodes : {0, 1, 2, 3, 7, 60, 500, 5000, 200000})
      for (std::size_t max_groups : {0, 1, 2, 3, 17, 256}) {
        SCOPED_TRACE("support " + std::to_string(i) + " max_nodes=" +
                     std::to_string(max_nodes) +
                     " max_groups=" + std::to_string(max_groups));
        GroupSearchLimits limits;
        limits.max_nodes = max_nodes;
        limits.max_groups = max_groups;
        expect_matches_oracle(supports[i], ks[i], limits);
      }
}

// --- Observability ------------------------------------------------------

TEST(GroupsMetrics, SearchTruncatedCountsCappedSearches) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  const auto truncated = [] {
    return obs::Registry::global().snapshot().counter(
        "groups.search_truncated");
  };

  const Cluster a = cluster_a();
  const std::size_t ka = exact_partition_count(a, 1);
  find_disjoint_groups(heter_assignment(a.throughputs(), ka, 1), ka);
  EXPECT_EQ(truncated(), 0u);

  const Cluster d = cluster_d();
  const std::size_t kd = exact_partition_count(d, 2);
  find_disjoint_groups(heter_assignment(d.throughputs(), kd, 2), kd);
  EXPECT_EQ(truncated(), 1u);

  obs::set_metrics_enabled(false);
  find_disjoint_groups(heter_assignment(d.throughputs(), kd, 2), kd);
  EXPECT_EQ(truncated(), 1u);  // disabled: no count
  obs::Registry::global().reset();
}

}  // namespace
}  // namespace hgc
