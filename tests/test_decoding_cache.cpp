// Tests for the LRU decoding-coefficient cache (the paper's "partially
// stored" decoding matrix, Section III-B) and its wiring into the
// robustness hot paths (completion_time / worst_case_time), including the
// duplicate-tail-solve fix verified with a solve-counting scheme wrapper.
#include <gtest/gtest.h>

#include "core/decoding_cache.hpp"
#include "core/heter_aware.hpp"
#include "core/robustness.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

class DecodingCacheTest : public ::testing::Test {
 protected:
  DecodingCacheTest() : rng_(141), scheme_({1, 2, 3, 4, 4}, 7, 1, rng_) {}

  std::vector<bool> all_but(std::initializer_list<WorkerId> missing) const {
    std::vector<bool> received(5, true);
    for (WorkerId w : missing) received[w] = false;
    return received;
  }

  Rng rng_;
  HeterAwareScheme scheme_;
};

TEST_F(DecodingCacheTest, HitReturnsIdenticalCoefficients) {
  DecodingCache cache(scheme_);
  const auto first = cache.decode(all_but({2}));
  const auto second = cache.decode(all_but({2}));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(DecodingCacheTest, MatchesUncachedDecode) {
  DecodingCache cache(scheme_);
  for (WorkerId straggler = 0; straggler < 5; ++straggler) {
    const auto received = all_but({straggler});
    const auto cached = cache.decode(received);
    const auto direct = scheme_.decoding_coefficients(received);
    ASSERT_EQ(cached.has_value(), direct.has_value());
    EXPECT_EQ(*cached, *direct);
  }
  EXPECT_EQ(cache.misses(), 5u);
}

TEST_F(DecodingCacheTest, CachesNegativeResults) {
  DecodingCache cache(scheme_);
  const auto received = all_but({3, 4});  // 2 stragglers > s = 1
  EXPECT_FALSE(cache.decode(received).has_value());
  EXPECT_FALSE(cache.decode(received).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(DecodingCacheTest, EvictsLeastRecentlyUsed) {
  DecodingCache cache(scheme_, 2);
  cache.decode(all_but({0}));  // A
  cache.decode(all_but({1}));  // B
  cache.decode(all_but({0}));  // hit A, A becomes MRU
  cache.decode(all_but({2}));  // C evicts B (A was bumped by the hit)
  EXPECT_EQ(cache.size(), 2u);
  const std::size_t hits_before = cache.hits();
  cache.decode(all_but({0}));  // A survived: hit
  EXPECT_EQ(cache.hits(), hits_before + 1);
  const std::size_t misses_before = cache.misses();
  cache.decode(all_but({1}));  // B was evicted: miss (and now evicts C)
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST_F(DecodingCacheTest, CapacityOneKeepsOnlyTheLatestPattern) {
  DecodingCache cache(scheme_, 1);
  cache.decode(all_but({0}));  // A cached
  EXPECT_EQ(cache.size(), 1u);
  cache.decode(all_but({1}));  // B evicts A immediately
  EXPECT_EQ(cache.size(), 1u);
  cache.decode(all_but({1}));  // B still resident
  EXPECT_EQ(cache.hits(), 1u);
  cache.decode(all_but({0}));  // A was evicted: miss again
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(DecodingCacheTest, ClearResets) {
  DecodingCache cache(scheme_);
  cache.decode(all_but({0}));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST_F(DecodingCacheTest, RejectsWrongWidth) {
  DecodingCache cache(scheme_);
  EXPECT_THROW(cache.decode(std::vector<bool>(3, true)),
               std::invalid_argument);
}

TEST_F(DecodingCacheTest, RejectsZeroCapacity) {
  EXPECT_THROW(DecodingCache(scheme_, 0), std::invalid_argument);
}

TEST(DecodingCacheWide, DistinguishesPatternsBeyond64Workers) {
  // 70 workers exercises the multi-word key path.
  Rng rng(142);
  Throughputs c(70, 1.0);
  HeterAwareScheme scheme(c, 70, 1, rng);
  DecodingCache cache(scheme);
  std::vector<bool> a(70, true), b(70, true);
  a[0] = false;
  b[69] = false;
  const auto ca = cache.decode(a);
  const auto cb = cache.decode(b);
  ASSERT_TRUE(ca.has_value());
  ASSERT_TRUE(cb.has_value());
  EXPECT_EQ(cache.misses(), 2u);  // distinct keys, both misses
  EXPECT_NE(*ca, *cb);
}

// Delegating wrapper that counts how many real decoding solves a call path
// performs — the instrument behind the duplicate-solve and cache-wiring
// assertions below.
class CountingScheme : public CodingScheme {
 public:
  explicit CountingScheme(const CodingScheme& inner)
      : CodingScheme(Matrix(inner.coding_matrix()),
                     Assignment(inner.assignment()),
                     inner.stragglers_tolerated(), inner.quorums()),
        inner_(inner) {}

  std::string name() const override { return "counting"; }

  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const override {
    ++solves;
    return inner_.decoding_coefficients(received);
  }

  mutable std::size_t solves = 0;

 private:
  const CodingScheme& inner_;
};

// A scheme that can never decode and whose one-result global quorum is met
// from the first arrival on: the exact shape that used to trigger
// completion_time's redundant tail re-solve of the full received set.
class NeverDecodableScheme : public CodingScheme {
 public:
  NeverDecodableScheme()
      : CodingScheme(Matrix{{1, 1}, {1, 1}, {1, 1}},
                     Assignment{{0, 1}, {0, 1}, {0, 1}}, 1, {{{}, 1}}) {}

  std::string name() const override { return "never"; }

  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>&) const override {
    ++solves;
    return std::nullopt;
  }

  mutable std::size_t solves = 0;
};

TEST(CompletionTimeSolves, NoDuplicateSolveWhenLoopAlreadyTriedFullSet) {
  // 3 survivors, a quorum of 1: the arrival loop attempts the
  // decode at counts 1, 2 and 3 — the last attempt IS the full received
  // set, so the undecodable tail must not re-run that identical solve.
  NeverDecodableScheme scheme;
  const Throughputs c = {1.0, 2.0, 3.0};
  EXPECT_FALSE(completion_time(scheme, c, {}).has_value());
  EXPECT_EQ(scheme.solves, 3u);
}

TEST(CompletionTimeSolves, TailStillRunsWhenLoopNeverReachedFullSet) {
  // Heter-aware with s = 1 has one global quorum of m - 1; with two
  // stragglers only m - 2 survivors arrive, the quorum is never met, the
  // loop never attempts a decode, and the tail case probes the full
  // survivor set once.
  Rng rng(151);
  HeterAwareScheme inner({1, 2, 3, 4, 4}, 7, 1, rng);
  CountingScheme scheme(inner);
  const Throughputs c = {1.0, 2.0, 3.0, 4.0, 4.0};
  EXPECT_FALSE(completion_time(scheme, c, {3, 4}).has_value());
  EXPECT_EQ(scheme.solves, 1u);
}

TEST(CompletionTimeSolves, CacheAbsorbsRepeatedPatterns) {
  Rng rng(152);
  HeterAwareScheme inner({1, 2, 3, 4, 4}, 7, 1, rng);
  CountingScheme scheme(inner);
  const Throughputs c = {1.0, 2.0, 3.0, 4.0, 4.0};

  const auto uncached = completion_time(scheme, c, {2});
  const std::size_t solves_per_call = scheme.solves;
  ASSERT_TRUE(uncached.has_value());
  ASSERT_GE(solves_per_call, 1u);

  DecodingCache cache(scheme);
  const auto first = completion_time(scheme, c, {2}, &cache);
  const auto second = completion_time(scheme, c, {2}, &cache);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *uncached);
  EXPECT_EQ(*second, *uncached);
  // The second cached call resolved entirely from the LRU.
  EXPECT_EQ(scheme.solves, 2 * solves_per_call);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(WorstCaseTimeSolves, SharedCacheMatchesUncachedAndSavesSolves) {
  Rng rng(153);
  HeterAwareScheme inner({1, 2, 3, 4, 4}, 7, 2, rng);
  CountingScheme scheme(inner);
  const Throughputs c = {1.0, 2.0, 3.0, 4.0, 4.0};

  const auto uncached = worst_case_time(scheme, c);
  const std::size_t uncached_solves = scheme.solves;
  ASSERT_TRUE(uncached.has_value());

  scheme.solves = 0;
  DecodingCache cache(scheme);
  const auto cached = worst_case_time(scheme, c, &cache);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, *uncached);
  // Arrival prefixes overlap across the C(m, s) patterns, so the shared
  // cache must strictly reduce the number of real solves.
  EXPECT_LT(scheme.solves, uncached_solves);
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace hgc
