// Tests for non-IID data tooling and the trainers' behaviour under skewed
// shards: BSP coded schemes stay exact, SSP and ignore-stragglers degrade —
// the statistical-efficiency argument behind Fig. 4.
#include <gtest/gtest.h>

#include "runtime/sim_trainer.hpp"
#include "runtime/ssp_trainer.hpp"

namespace hgc {
namespace {

Dataset make_data(std::uint64_t seed = 77, std::size_t n = 120) {
  Rng rng(seed);
  return make_gaussian_classification(n, 6, 4, 2.5, rng);
}

TEST(SortByLabel, GroupsRowsAndPreservesContent) {
  const Dataset data = make_data();
  const Dataset sorted = sort_by_label(data);
  ASSERT_EQ(sorted.size(), data.size());
  for (std::size_t i = 1; i < sorted.size(); ++i)
    EXPECT_LE(sorted.labels[i - 1], sorted.labels[i]);
  // Same label multiset.
  auto histogram = [](const Dataset& d) {
    std::vector<std::size_t> h(d.num_classes, 0);
    for (int l : d.labels) ++h[static_cast<std::size_t>(l)];
    return h;
  };
  EXPECT_EQ(histogram(sorted), histogram(data));
}

TEST(SortByLabel, ContiguousShardsBecomeClassPure) {
  const Dataset sorted = sort_by_label(make_data(77, 120));
  const auto shards = partition_rows(sorted.size(), 4);
  // 120 rows, 4 balanced classes, 4 shards: each shard is one class.
  for (const auto& shard : shards) {
    std::vector<std::size_t> h(sorted.num_classes, 0);
    for (std::size_t row : shard)
      ++h[static_cast<std::size_t>(sorted.labels[row])];
    std::size_t nonzero = 0;
    for (std::size_t count : h) nonzero += count > 0 ? 1 : 0;
    EXPECT_EQ(nonzero, 1u);
  }
}

TEST(IgnoreStragglers, FasterButBiasedOnNonIidData) {
  // On label-sorted data, dropping the slowest workers drops whole classes:
  // the coded scheme must reach a visibly lower loss for the same iteration
  // count, while ignore-stragglers finishes its iterations faster.
  const Cluster cluster = cluster_a();
  const Dataset data = sort_by_label(make_data(79, 160));
  SoftmaxRegression model(6, 4);
  BspTrainingConfig config;
  config.experiment.k = 24;
  config.experiment.s = 1;
  config.experiment.iterations = 60;
  config.learning_rate = 0.4;

  const auto coded = train_bsp_coded(SchemeKind::kHeterAware, cluster, model,
                                     data, config);
  const auto naive =
      train_bsp_coded(SchemeKind::kNaive, cluster, model, data, config);
  // Budget 2 drops both 2-vCPU twins (dropping only one leaves its equally
  // slow sibling gating the barrier).
  BspTrainingConfig ignore_config = config;
  ignore_config.experiment.s = 2;
  const auto ignore =
      train_bsp_ignore_stragglers(cluster, model, data, ignore_config);

  EXPECT_EQ(ignore.failed_iterations, 0u);
  // Against its like-for-like uniform baseline (naive), dropping the
  // slowest shards is faster...
  EXPECT_LT(ignore.trace.total_time(), naive.trace.total_time());
  // ...but pays in accuracy: the always-dropped slow workers' classes are
  // systematically under-served (the approximation cost of [35]/[36]),
  // while the coded run computes the exact gradient every iteration.
  EXPECT_LT(coded.trace.final_loss(), ignore.trace.final_loss());
}

TEST(IgnoreStragglers, FailsOnlyBeyondBudget) {
  const Cluster cluster = cluster_a();
  const Dataset data = make_data();
  SoftmaxRegression model(6, 4);
  BspTrainingConfig config;
  config.experiment.iterations = 5;
  config.experiment.model.num_stragglers = 2;
  config.experiment.model.fault = true;
  // Budget s = 2 matches the faults: never fails.
  config.experiment.s = 2;
  const auto ok = train_bsp_ignore_stragglers(cluster, model, data, config);
  EXPECT_EQ(ok.failed_iterations, 0u);
  // Budget s = 1 < 2 faults: fails immediately.
  config.experiment.s = 1;
  const auto bad = train_bsp_ignore_stragglers(cluster, model, data, config);
  EXPECT_EQ(bad.failed_iterations, 1u);
}

TEST(SspNonIid, SkewedShardsHurtConvergence) {
  // Same work budget, same cluster: SSP on class-pure shards converges
  // worse than SSP on IID shards (unbalanced contributions now carry bias).
  const Cluster cluster = cluster_a();
  const Dataset iid = make_data(80, 160);
  const Dataset sorted = sort_by_label(iid);
  SoftmaxRegression model(6, 4);

  SspTrainingConfig config;
  config.experiment.iterations = 40;
  config.learning_rate = 0.4;
  config.staleness = 2;

  const auto on_iid = train_ssp(cluster, model, iid, config);
  const auto on_sorted = train_ssp(cluster, model, sorted, config);
  EXPECT_GT(on_sorted.trace.final_loss(),
            on_iid.trace.final_loss() - 1e-9);
}

}  // namespace
}  // namespace hgc
