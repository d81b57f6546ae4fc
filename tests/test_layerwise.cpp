// Tests for the layer-wise coded pipeline (compute/communication overlap,
// the paper's conclusion extension).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/scheme_factory.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "sim/layerwise.hpp"

namespace hgc {
namespace {

IterationConditions clean(std::size_t m) {
  IterationConditions cond;
  cond.speed_factor.assign(m, 1.0);
  cond.delay.assign(m, 0.0);
  cond.faulted.assign(m, false);
  return cond;
}

class LayerwiseTest : public ::testing::Test {
 protected:
  LayerwiseTest()
      : cluster_(cluster_a()),
        rng_(151),
        scheme_(make_scheme(SchemeKind::kHeterAware, cluster_.throughputs(),
                            24, 1, rng_)) {}

  Cluster cluster_;
  Rng rng_;
  std::unique_ptr<CodingScheme> scheme_;
};

TEST_F(LayerwiseTest, EqualLayersSumToOne) {
  const auto fractions = equal_layers(7);
  double total = 0.0;
  for (double f : fractions) total += f;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_THROW(equal_layers(0), std::invalid_argument);
}

TEST_F(LayerwiseTest, MonolithicMatchesPlainSimulatorWithoutComm) {
  // A single layer with no communication cost adds the same terms as a
  // round over a zero-latency link, so both decode at the bit-identical
  // time. Delays from {0, d} and unit speeds make equal-throughput workers
  // tie; a few faults make some rounds undecodable.
  const LayerwiseParams params;  // single layer, no comm cost
  std::size_t decoded = 0;
  std::size_t undecodable = 0;
  for (SchemeKind kind : paper_schemes()) {
    Rng build_rng(152);
    const auto scheme =
        make_scheme(kind, cluster_.throughputs(), 24, 1, build_rng);
    const double d = 0.5 * ideal_iteration_time(cluster_, 1);
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      Rng rng(3000 + seed);
      auto cond = clean(8);
      for (WorkerId w = 0; w < 8; ++w) {
        if (rng.bernoulli(0.3)) cond.delay[w] = d;
        if (rng.bernoulli(0.05)) cond.faulted[w] = true;
      }
      const auto layered =
          simulate_layerwise_iteration(*scheme, cluster_, cond, params);
      engine::FixedLatencyLink link;
      const auto plain = engine::run_round(*scheme, cluster_, cond, link);
      const std::string where =
          to_string(kind) + ", seed " + std::to_string(seed);
      ASSERT_EQ(layered.decoded, plain.decoded) << where;
      if (!plain.decoded) {
        ++undecodable;
        continue;
      }
      ++decoded;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(layered.time),
                std::bit_cast<std::uint64_t>(plain.time))
          << where;
    }
  }
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(undecodable, 0u);
}

TEST_F(LayerwiseTest, OverlapHidesTransferTime) {
  const double transfer = 0.5 * ideal_iteration_time(cluster_, 1);

  LayerwiseParams mono;
  mono.full_transfer_time = transfer;
  const auto monolithic =
      simulate_layerwise_iteration(*scheme_, cluster_, clean(8), mono);

  LayerwiseParams layered = mono;
  layered.layer_fractions = equal_layers(8);
  const auto pipelined =
      simulate_layerwise_iteration(*scheme_, cluster_, clean(8), layered);

  ASSERT_TRUE(monolithic.decoded);
  ASSERT_TRUE(pipelined.decoded);
  // Monolithic pays compute + full transfer; pipelining hides all but the
  // last layer's slice.
  EXPECT_LT(pipelined.time, monolithic.time - 0.5 * transfer);
}

TEST_F(LayerwiseTest, MoreLayersNeverSlower) {
  LayerwiseParams params;
  params.full_transfer_time = 0.02;
  double previous = 1e9;
  for (std::size_t layers : {1u, 2u, 4u, 16u}) {
    params.layer_fractions = equal_layers(layers);
    const auto result =
        simulate_layerwise_iteration(*scheme_, cluster_, clean(8), params);
    ASSERT_TRUE(result.decoded);
    EXPECT_LE(result.time, previous + 1e-12) << layers << " layers";
    previous = result.time;
  }
}

TEST_F(LayerwiseTest, PerMessageLatencyPenalizesOverSplitting) {
  // With a fixed cost per message, thousands of tiny layers lose: the last
  // layer still pays latency, and so does every other one... the *last*
  // layer's arrival = compute + latency + slice; latency is not amortized.
  LayerwiseParams coarse;
  coarse.full_transfer_time = 0.01;
  coarse.per_message_latency = 0.005;
  coarse.layer_fractions = equal_layers(2);
  LayerwiseParams fine = coarse;
  fine.layer_fractions = equal_layers(64);
  const auto coarse_result =
      simulate_layerwise_iteration(*scheme_, cluster_, clean(8), coarse);
  const auto fine_result =
      simulate_layerwise_iteration(*scheme_, cluster_, clean(8), fine);
  ASSERT_TRUE(coarse_result.decoded);
  ASSERT_TRUE(fine_result.decoded);
  // Finer layers shrink the exposed final slice (0.01/64 vs 0.01/2) but the
  // fixed latency stays; the gap must be bounded by the slice difference.
  EXPECT_NEAR(fine_result.time,
              coarse_result.time - (0.01 / 2 - 0.01 / 64), 1e-9);
}

TEST_F(LayerwiseTest, StragglerToleranceCarriesOver) {
  auto cond = clean(8);
  cond.faulted[7] = true;
  LayerwiseParams params;
  params.layer_fractions = equal_layers(4);
  params.full_transfer_time = 0.01;
  const auto result =
      simulate_layerwise_iteration(*scheme_, cluster_, cond, params);
  EXPECT_TRUE(result.decoded);

  cond.faulted[6] = true;  // two faults > s = 1
  const auto dead =
      simulate_layerwise_iteration(*scheme_, cluster_, cond, params);
  EXPECT_FALSE(dead.decoded);
}

TEST_F(LayerwiseTest, LayerTimesAreRecorded) {
  LayerwiseParams params;
  params.layer_fractions = {0.5, 0.3, 0.2};
  const auto result =
      simulate_layerwise_iteration(*scheme_, cluster_, clean(8), params);
  ASSERT_TRUE(result.decoded);
  ASSERT_EQ(result.layer_times.size(), 3u);
  // Later layers decode later (cumulative compute grows).
  EXPECT_LT(result.layer_times[0], result.layer_times[1]);
  EXPECT_LT(result.layer_times[1], result.layer_times[2]);
  EXPECT_DOUBLE_EQ(result.time, result.layer_times[2]);
}

TEST_F(LayerwiseTest, RejectsBadFractions) {
  LayerwiseParams params;
  params.layer_fractions = {0.5, 0.2};  // sums to 0.7
  EXPECT_THROW(
      simulate_layerwise_iteration(*scheme_, cluster_, clean(8), params),
      std::invalid_argument);
  params.layer_fractions = {1.5, -0.5};
  EXPECT_THROW(
      simulate_layerwise_iteration(*scheme_, cluster_, clean(8), params),
      std::invalid_argument);
}

}  // namespace
}  // namespace hgc
