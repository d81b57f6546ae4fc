// Randomized cross-component properties ("fuzz" sweeps): arrival-order
// invariance of the decoded aggregate, monotonicity of decodability, cache
// vs direct agreement, and wire-format round-trips under random payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/decoder.hpp"
#include "core/decoding_cache.hpp"
#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "net/wire.hpp"
#include "shuffle.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

struct FuzzCase {
  SchemeKind kind;
  std::size_t m, s;
};

std::string fuzz_name(const ::testing::TestParamInfo<FuzzCase>& info) {
  std::string name = to_string(info.param.kind);
  for (char& ch : name)
    if (ch == '-') ch = '_';
  return name + "_m" + std::to_string(info.param.m) + "_s" +
         std::to_string(info.param.s);
}

class DecoderFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DecoderFuzz, ArrivalOrderNeverChangesTheAggregate) {
  const auto [kind, m, s] = GetParam();
  Rng rng(3000 + m * 7 + s);
  Throughputs c(m);
  for (double& x : c) x = rng.uniform(1.0, 8.0);
  const auto scheme = make_scheme(kind, c, 2 * m, s, rng);
  const std::size_t k = scheme->num_partitions();

  // Random per-partition gradients of dimension 5.
  std::vector<Vector> grads(k);
  Vector expected(5, 0.0);
  for (auto& g : grads) {
    g.resize(5);
    for (double& v : g) v = rng.normal();
    axpy(1.0, g, expected);
  }
  std::vector<Vector> coded(m);
  std::vector<WorkerId> senders;
  for (WorkerId w = 0; w < m; ++w) {
    if (scheme->load(w) == 0) continue;
    coded[w] = encode_gradient(*scheme, w, grads);
    senders.push_back(w);
  }

  for (int trial = 0; trial < 20; ++trial) {
    auto order = senders;
    shuffle(rng, std::span<WorkerId>(order));
    std::vector<Arrival> arrivals;
    for (WorkerId w : order)
      arrivals.emplace_back(static_cast<double>(arrivals.size()), w);
    const DecodablePrefix prefix = first_decodable_prefix(*scheme, arrivals);
    ASSERT_TRUE(prefix.coefficients.has_value())
        << "all results in, still undecodable";
    const Vector aggregate =
        combine_coded_gradients(*prefix.coefficients, coded);
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_NEAR(aggregate[i], expected[i], 1e-6)
          << to_string(kind) << " trial " << trial;
  }
}

TEST_P(DecoderFuzz, DecodabilityIsMonotoneInReceivedSet) {
  const auto [kind, m, s] = GetParam();
  Rng rng(4000 + m * 11 + s);
  Throughputs c(m);
  for (double& x : c) x = rng.uniform(1.0, 8.0);
  const auto scheme = make_scheme(kind, c, 2 * m, s, rng);

  for (int trial = 0; trial < 50; ++trial) {
    std::vector<bool> received(m);
    for (std::size_t w = 0; w < m; ++w) received[w] = rng.bernoulli(0.6);
    // Idle workers never respond.
    for (std::size_t w = 0; w < m; ++w)
      if (scheme->load(w) == 0) received[w] = false;
    if (!scheme->decoding_coefficients(received)) continue;
    // Adding one more result must never break decodability.
    for (std::size_t w = 0; w < m; ++w) {
      if (received[w] || scheme->load(w) == 0) continue;
      auto more = received;
      more[w] = true;
      EXPECT_TRUE(scheme->decoding_coefficients(more).has_value())
          << to_string(kind) << " adding worker " << w;
    }
  }
}

TEST_P(DecoderFuzz, CacheAgreesWithDirectDecode) {
  const auto [kind, m, s] = GetParam();
  Rng rng(5000 + m * 13 + s);
  Throughputs c(m);
  for (double& x : c) x = rng.uniform(1.0, 8.0);
  const auto scheme = make_scheme(kind, c, 2 * m, s, rng);
  DecodingCache cache(*scheme, 16);

  for (int trial = 0; trial < 100; ++trial) {
    std::vector<bool> received(m);
    for (std::size_t w = 0; w < m; ++w) received[w] = rng.bernoulli(0.7);
    const auto cached = cache.decode(received);
    const auto direct = scheme->decoding_coefficients(received);
    ASSERT_EQ(cached.has_value(), direct.has_value()) << "trial " << trial;
    if (cached) {
      EXPECT_EQ(*cached, *direct);
    }
  }
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DecoderFuzz,
    ::testing::Values(FuzzCase{SchemeKind::kCyclic, 6, 2},
                      FuzzCase{SchemeKind::kCyclic, 9, 1},
                      FuzzCase{SchemeKind::kFractionalRepetition, 8, 1},
                      FuzzCase{SchemeKind::kHeterAware, 5, 1},
                      FuzzCase{SchemeKind::kHeterAware, 8, 2},
                      FuzzCase{SchemeKind::kHeterAware, 10, 3},
                      FuzzCase{SchemeKind::kGroupBased, 5, 1},
                      FuzzCase{SchemeKind::kGroupBased, 8, 2},
                      FuzzCase{SchemeKind::kGroupBased, 10, 3}),
    fuzz_name);

TEST(WireFuzz, RandomPayloadsRoundTrip) {
  Rng rng(6000);
  for (int trial = 0; trial < 200; ++trial) {
    GradientMessage message;
    message.worker = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    message.iteration =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    message.payload.resize(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (double& v : message.payload) v = rng.normal(0.0, 1e6);
    EXPECT_EQ(decode_message(encode_message(message)), message);
  }
}

TEST(WireFuzz, RandomGarbageNeverCrashes) {
  Rng rng(7000);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::byte> garbage(
        static_cast<std::size_t>(rng.uniform_int(0, 128)));
    for (auto& b : garbage)
      b = static_cast<std::byte>(rng.uniform_int(0, 255));
    try {
      const GradientMessage message = decode_message(garbage);
      // Astronomically unlikely: random bytes passing the CRC. If it ever
      // happens the message must at least be internally consistent.
      EXPECT_EQ(garbage.size(), frame_size(message.payload.size()));
    } catch (const WireError&) {
      // expected path
    }
  }
}

TEST(RobustnessFuzz, WorstCaseTimeNeverBelowCleanTime) {
  // Stragglers can only slow an iteration down.
  Rng rng(8000);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 4 + static_cast<std::size_t>(trial % 5);
    const std::size_t s = 1 + static_cast<std::size_t>(trial % 2);
    Throughputs c(m);
    for (double& x : c) x = rng.uniform(1.0, 8.0);
    const auto scheme = make_scheme(SchemeKind::kHeterAware, c, 2 * m, s, rng);
    const auto clean = completion_time(*scheme, c, {});
    const auto worst = worst_case_time(*scheme, c);
    ASSERT_TRUE(clean.has_value());
    ASSERT_TRUE(worst.has_value());
    EXPECT_GE(*worst, *clean - 1e-12);
  }
}

}  // namespace
}  // namespace hgc
