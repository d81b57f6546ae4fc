// Tests for the cluster model (Table II presets) and straggler injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"

namespace hgc {
namespace {

TEST(Cluster, TableIIWorkerCounts) {
  EXPECT_EQ(cluster_a().size(), 8u);
  EXPECT_EQ(cluster_b().size(), 16u);
  EXPECT_EQ(cluster_c().size(), 32u);
  EXPECT_EQ(cluster_d().size(), 58u);
}

TEST(Cluster, TableIIVcpuHistograms) {
  auto histogram = [](const Cluster& cluster) {
    std::map<unsigned, std::size_t> h;
    for (const auto& w : cluster.workers()) ++h[w.vcpus];
    return h;
  };
  const auto ha = histogram(cluster_a());
  EXPECT_EQ(ha.at(2), 2u);
  EXPECT_EQ(ha.at(4), 2u);
  EXPECT_EQ(ha.at(8), 3u);
  EXPECT_EQ(ha.at(12), 1u);
  const auto hd = histogram(cluster_d());
  EXPECT_EQ(hd.at(4), 4u);
  EXPECT_EQ(hd.at(8), 20u);
  EXPECT_EQ(hd.at(12), 18u);
  EXPECT_EQ(hd.at(16), 16u);
  EXPECT_EQ(hd.count(2), 0u);
}

TEST(Cluster, ThroughputProportionalToVcpus) {
  const Cluster c = cluster_a(0.5);
  for (const auto& w : c.workers())
    EXPECT_DOUBLE_EQ(w.throughput, 0.5 * w.vcpus);
}

TEST(Cluster, SortedSlowestFirst) {
  for (const Cluster& c : paper_clusters()) {
    const auto t = c.throughputs();
    for (std::size_t i = 1; i < t.size(); ++i) EXPECT_LE(t[i - 1], t[i]);
  }
}

TEST(Cluster, HeterogeneityRatioClusterA) {
  // Cluster-A: Σvcpus = 2·2+2·4+3·8+12 = 48, mean 6, min 2 → ratio 3. This
  // is the paper's headline 3× heter-vs-cyclic speedup at full fault.
  EXPECT_NEAR(cluster_a().heterogeneity_ratio(), 3.0, 1e-12);
}

TEST(Cluster, TotalAndMinThroughput) {
  const Cluster c = cluster_a();
  EXPECT_NEAR(c.total_throughput(), 48.0, 1e-12);
  EXPECT_NEAR(c.min_throughput(), 2.0, 1e-12);
}

TEST(Cluster, RejectsEmptyAndNonPositive) {
  EXPECT_THROW(Cluster("x", {}), std::invalid_argument);
  EXPECT_THROW(Cluster("x", {{2, 0.0}}), std::invalid_argument);
  EXPECT_THROW(
      Cluster::from_vcpu_histogram("x", {{0, 1}}), std::invalid_argument);
}

TEST(Cluster, WorkerAccessorBounds) {
  const Cluster c = cluster_a();
  EXPECT_NO_THROW(c.worker(7));
  EXPECT_THROW(c.worker(8), std::invalid_argument);
}

TEST(StragglerModel, NoOpByDefault) {
  Rng rng(61);
  StragglerModel model;
  const auto cond = model.draw(5, rng);
  EXPECT_EQ(cond.size(), 5u);
  for (std::size_t w = 0; w < 5; ++w) {
    EXPECT_DOUBLE_EQ(cond.speed_factor[w], 1.0);
    EXPECT_DOUBLE_EQ(cond.delay[w], 0.0);
    EXPECT_FALSE(cond.faulted[w]);
  }
}

TEST(StragglerModel, DelaysExactlyNWorkers) {
  Rng rng(62);
  StragglerModel model;
  model.num_stragglers = 2;
  model.delay_seconds = 1.5;
  for (int trial = 0; trial < 50; ++trial) {
    const auto cond = model.draw(6, rng);
    std::size_t delayed = 0;
    for (std::size_t w = 0; w < 6; ++w)
      if (cond.delay[w] > 0.0) {
        ++delayed;
        EXPECT_DOUBLE_EQ(cond.delay[w], 1.5);
      }
    EXPECT_EQ(delayed, 2u);
  }
}

TEST(StragglerModel, FaultsInsteadOfDelays) {
  Rng rng(63);
  StragglerModel model;
  model.num_stragglers = 1;
  model.fault = true;
  const auto cond = model.draw(4, rng);
  const auto faults = std::count(cond.faulted.begin(), cond.faulted.end(), true);
  EXPECT_EQ(faults, 1);
  for (double d : cond.delay) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(StragglerModel, VictimsVaryAcrossIterations) {
  Rng rng(64);
  StragglerModel model;
  model.num_stragglers = 1;
  model.delay_seconds = 1.0;
  std::set<std::size_t> victims;
  for (int trial = 0; trial < 100; ++trial) {
    const auto cond = model.draw(5, rng);
    for (std::size_t w = 0; w < 5; ++w)
      if (cond.delay[w] > 0.0) victims.insert(w);
  }
  EXPECT_EQ(victims.size(), 5u);  // everyone gets hit eventually
}

TEST(StragglerModel, FluctuationStaysBoundedAndCentered) {
  Rng rng(65);
  StragglerModel model;
  model.fluctuation_sigma = 0.1;
  double sum = 0.0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    const auto cond = model.draw(10, rng);
    for (double f : cond.speed_factor) {
      EXPECT_GE(f, 1.0 - 0.3 - 1e-12);
      EXPECT_LE(f, 1.0 + 0.3 + 1e-12);
      sum += f;
    }
  }
  EXPECT_NEAR(sum / (trials * 10), 1.0, 0.01);
}

TEST(StragglerModel, RejectsBadConfig) {
  Rng rng(66);
  StragglerModel model;
  model.num_stragglers = 7;
  EXPECT_THROW(model.draw(5, rng), std::invalid_argument);
  model.num_stragglers = 0;
  model.delay_seconds = -1.0;
  EXPECT_THROW(model.draw(5, rng), std::invalid_argument);
}

/// Bit-exact equality of two conditions.
void expect_same_conditions(const IterationConditions& a,
                            const IterationConditions& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a.speed_factor[w], b.speed_factor[w]) << "worker " << w;
    EXPECT_EQ(a.delay[w], b.delay[w]) << "worker " << w;
    EXPECT_EQ(a.faulted[w], b.faulted[w]) << "worker " << w;
  }
}

TEST(ConditionTape, ReplaysSuccessiveDrawsUnderEveryDelayModel) {
  // One tape serves every model sharing m, the victim count and σ: delay
  // and fault are applied at replay, so each model's replay equals that
  // model's own successive draws from the same stream.
  for (double sigma : {0.0, 0.1}) {
    StragglerModel tape_model;
    tape_model.num_stragglers = 2;
    tape_model.fluctuation_sigma = sigma;
    const ConditionTape tape(tape_model, 9, 20, Rng(71));
    EXPECT_NO_THROW(tape.require_matches(tape_model, 9, 20));
    EXPECT_EQ(ConditionTape::bytes(tape_model, 9, 20),
              20 * ((sigma > 0.0 ? 9 * sizeof(double) : 0) +
                    2 * sizeof(std::size_t)));
    for (const auto& [delay, fault] :
         {std::pair{0.0, false}, std::pair{1.5, false}, std::pair{0.0, true}}) {
      StragglerModel model = tape_model;
      model.delay_seconds = delay;
      model.fault = fault;
      Rng rng(71);
      IterationConditions replayed;
      for (std::size_t iter = 0; iter < 20; ++iter) {
        tape.replay(iter, model, replayed);
        expect_same_conditions(replayed, model.draw(9, rng));
      }
    }
  }
}

TEST(ConditionTape, RejectsBadConfigAndMismatchedModels) {
  StragglerModel model;
  model.num_stragglers = 7;
  EXPECT_THROW(ConditionTape(model, 5, 3, Rng(1)), std::invalid_argument);
  model.num_stragglers = 1;
  const ConditionTape tape(model, 5, 3, Rng(1));
  IterationConditions cond;
  EXPECT_THROW(tape.replay(3, model, cond), std::invalid_argument);
  EXPECT_NO_THROW(tape.require_matches(model, 5, 3));
  EXPECT_THROW(tape.require_matches(model, 6, 3), std::invalid_argument);
  EXPECT_THROW(tape.require_matches(model, 5, 4), std::invalid_argument);
  StragglerModel other = model;
  other.num_stragglers = 2;
  EXPECT_THROW(tape.require_matches(other, 5, 3), std::invalid_argument);
  other = model;
  other.fluctuation_sigma = 0.1;
  EXPECT_THROW(tape.require_matches(other, 5, 3), std::invalid_argument);
  other = model;
  other.delay_seconds = -1.0;
  EXPECT_THROW(tape.require_matches(other, 5, 3), std::invalid_argument);
}

TEST(EstimateThroughputs, ExactWhenSigmaZero) {
  Rng rng(67);
  const Throughputs truth = {2, 4, 8};
  EXPECT_EQ(estimate_throughputs(truth, 0.0, rng), truth);
}

TEST(EstimateThroughputs, NoisyButBoundedAndPositive) {
  Rng rng(68);
  const Throughputs truth = {2, 4, 8, 12, 16};
  for (int trial = 0; trial < 100; ++trial) {
    const auto est = estimate_throughputs(truth, 0.2, rng);
    for (std::size_t w = 0; w < truth.size(); ++w) {
      EXPECT_GT(est[w], 0.0);
      EXPECT_GE(est[w], truth[w] * (1.0 - 0.6) - 1e-12);
      EXPECT_LE(est[w], truth[w] * (1.0 + 0.6) + 1e-12);
    }
  }
}

}  // namespace
}  // namespace hgc
