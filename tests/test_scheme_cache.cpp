// Tests for the shared scheme-construction cache: key semantics (what may
// and may not be shared across sweep cells), result-transparency against
// the uncached construction path, stats, and thread-safety (this file is
// part of the CI TSan build).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/scheme_cache.hpp"
#include "linalg_reference.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

const Throughputs kClusterLike = {2.0, 4.0, 6.0, 8.0, 8.0};

void expect_same_matrix(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_EQ(a(r, c), b(r, c)) << "entry (" << r << ", " << c << ")";
}

TEST(SchemeCacheTraits, ClassifiesConstructionInputs) {
  EXPECT_FALSE(scheme_uses_construction_rng(SchemeKind::kNaive));
  EXPECT_FALSE(
      scheme_uses_construction_rng(SchemeKind::kFractionalRepetition));
  EXPECT_TRUE(scheme_uses_construction_rng(SchemeKind::kCyclic));
  EXPECT_TRUE(scheme_uses_construction_rng(SchemeKind::kHeterAware));
  EXPECT_TRUE(scheme_uses_construction_rng(SchemeKind::kGroupBased));

  EXPECT_FALSE(scheme_uses_throughputs(SchemeKind::kNaive));
  EXPECT_FALSE(scheme_uses_throughputs(SchemeKind::kCyclic));
  EXPECT_FALSE(scheme_uses_throughputs(SchemeKind::kFractionalRepetition));
  EXPECT_TRUE(scheme_uses_throughputs(SchemeKind::kHeterAware));
  EXPECT_TRUE(scheme_uses_throughputs(SchemeKind::kGroupBased));
}

TEST(SchemeCache, HitReturnsTheSameInstance) {
  SchemeCache cache;
  const auto first =
      cache.get_or_create(SchemeKind::kHeterAware, kClusterLike, 10, 1, 7);
  const auto second =
      cache.get_or_create(SchemeKind::kHeterAware, kClusterLike, 10, 1, 7);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SchemeCache, MatchesUncachedConstruction) {
  // Result-transparency: the cache must build exactly what run_experiment's
  // uncached path builds — Rng(seed) fed straight into make_scheme.
  // 6 workers so fractional repetition's (s+1) | m divisibility holds.
  const Throughputs six = {2.0, 4.0, 6.0, 8.0, 8.0, 4.0};
  SchemeCache cache;
  for (const SchemeKind kind :
       {SchemeKind::kNaive, SchemeKind::kCyclic,
        SchemeKind::kFractionalRepetition, SchemeKind::kHeterAware,
        SchemeKind::kGroupBased}) {
    const auto cached = cache.get_or_create(kind, six, 12, 1, 99);
    Rng rng(99);
    const auto direct = make_scheme(kind, six, 12, 1, rng);
    expect_same_matrix(ref::to_dense(cached->sparse_matrix()),
                       ref::to_dense(direct->sparse_matrix()));
  }
}

TEST(SchemeCache, DeterministicSchemesShareAcrossSeeds) {
  SchemeCache cache;
  const auto naive_a =
      cache.get_or_create(SchemeKind::kNaive, kClusterLike, 10, 1, 1);
  const auto naive_b =
      cache.get_or_create(SchemeKind::kNaive, kClusterLike, 10, 1, 2);
  EXPECT_EQ(naive_a.get(), naive_b.get());

  // 6 workers so (s+1) | m holds for fractional repetition.
  const Throughputs six(6, 1.0);
  const auto frac_a = cache.get_or_create(
      SchemeKind::kFractionalRepetition, six, 6, 1, 1);
  const auto frac_b = cache.get_or_create(
      SchemeKind::kFractionalRepetition, six, 6, 1, 2);
  EXPECT_EQ(frac_a.get(), frac_b.get());
}

TEST(SchemeCache, RandomizedSchemesKeyOnSeed) {
  SchemeCache cache;
  const auto a =
      cache.get_or_create(SchemeKind::kHeterAware, kClusterLike, 10, 1, 1);
  const auto b =
      cache.get_or_create(SchemeKind::kHeterAware, kClusterLike, 10, 1, 2);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(SchemeCache, ThroughputObliviousSchemesShareAcrossClusters) {
  SchemeCache cache;
  Throughputs other = kClusterLike;
  other[0] *= 3.0;  // same size, different speeds
  const auto a =
      cache.get_or_create(SchemeKind::kCyclic, kClusterLike, 10, 1, 5);
  const auto b = cache.get_or_create(SchemeKind::kCyclic, other, 10, 1, 5);
  EXPECT_EQ(a.get(), b.get());

  // Throughput-aware schemes must NOT share across different estimates —
  // this is why estimation_sigma > 0 (seed-dependent estimates) keeps
  // heter/group cells separate per seed even before the seed is folded in.
  const auto ha =
      cache.get_or_create(SchemeKind::kHeterAware, kClusterLike, 10, 1, 5);
  const auto hb =
      cache.get_or_create(SchemeKind::kHeterAware, other, 10, 1, 5);
  EXPECT_NE(ha.get(), hb.get());
}

TEST(SchemeCache, DistinguishesKAndS) {
  SchemeCache cache;
  const auto base =
      cache.get_or_create(SchemeKind::kHeterAware, kClusterLike, 10, 1, 5);
  const auto other_k =
      cache.get_or_create(SchemeKind::kHeterAware, kClusterLike, 12, 1, 5);
  const auto other_s =
      cache.get_or_create(SchemeKind::kHeterAware, kClusterLike, 10, 2, 5);
  EXPECT_NE(base.get(), other_k.get());
  EXPECT_NE(base.get(), other_s.get());
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(SchemeCache, ConcurrentLookupsAgreeOnOneInstance) {
  // Hammer a small key set from many threads; every thread must observe the
  // same instance per key. Runs under TSan in CI to prove the shared-mutex
  // discipline is race-free.
  SchemeCache cache;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 50;
  std::vector<std::vector<const CodingScheme*>> seen(
      kThreads, std::vector<const CodingScheme*>(2, nullptr));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cache, &seen] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const auto heter = cache.get_or_create(SchemeKind::kHeterAware,
                                               kClusterLike, 10, 1, 3);
        const auto cyclic = cache.get_or_create(SchemeKind::kCyclic,
                                                kClusterLike, 10, 1, 3);
        if (seen[t][0] == nullptr) seen[t][0] = heter.get();
        if (seen[t][1] == nullptr) seen[t][1] = cyclic.get();
        EXPECT_EQ(seen[t][0], heter.get());
        EXPECT_EQ(seen[t][1], cyclic.get());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[0][0], seen[t][0]);
    EXPECT_EQ(seen[0][1], seen[t][1]);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kRounds * 2);
}

}  // namespace
}  // namespace hgc
