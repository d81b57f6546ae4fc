// Unit tests for src/util: RNG, stats, tables, args, error macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/args.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hgc {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    if (a.uniform() != b.uniform()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformStaysInOpenInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(0.0, 1.0);
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRejectsBadBounds) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(42);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  // Children must differ from each other and advance independently.
  EXPECT_NE(child1.uniform(), child2.uniform());
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(42), b(42);
  Rng ca = a.fork(), cb = b.fork();
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(ca.uniform(), cb.uniform());
}

TEST(Rng, TruncatedNormalRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.truncated_normal(0.0, 1.0, -0.5, 0.5);
    EXPECT_GE(x, -0.5);
    EXPECT_LE(x, 0.5);
  }
}

TEST(Rng, TruncatedNormalPathologicalBoundsClamps) {
  Rng rng(3);
  // Bounds far from the mean: resampling gives up and clamps.
  const double x = rng.truncated_normal(0.0, 0.001, 5.0, 6.0);
  EXPECT_GE(x, 5.0);
  EXPECT_LE(x, 6.0);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndSorted) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = rng.sample_without_replacement(20, 7);
    ASSERT_EQ(sample.size(), 7u);
    for (std::size_t i = 1; i < sample.size(); ++i)
      EXPECT_LT(sample[i - 1], sample[i]);
    for (std::size_t v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(5);
  const auto sample = rng.sample_without_replacement(5, 5);
  EXPECT_EQ(sample, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, SampleMatchesDensePoolFisherYates) {
  // The dense-pool partial Fisher-Yates the sparse one replaced: the same
  // uniform_int draws must give the same sample and leave the stream in the
  // same state.
  const auto dense = [](Rng& rng, std::size_t n, std::size_t count) {
    std::vector<std::size_t> pool(n);
    for (std::size_t i = 0; i < n; ++i) pool[i] = i;
    for (std::size_t i = 0; i < count; ++i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(n) - 1));
      std::swap(pool[i], pool[j]);
    }
    pool.resize(count);
    std::sort(pool.begin(), pool.end());
    return pool;
  };
  for (std::size_t n : {1, 2, 58, 10000})
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2}, n}) {
      if (count > n) continue;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng sparse_rng(seed), dense_rng(seed);
        EXPECT_EQ(sparse_rng.sample_without_replacement(n, count),
                  dense(dense_rng, n, count))
            << "n=" << n << " count=" << count << " seed=" << seed;
        EXPECT_EQ(sparse_rng.engine()(), dense_rng.engine()());
      }
    }
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng rng(5);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 2000; ++i)
    ++seen[static_cast<std::size_t>(rng.uniform_int(0, 4))];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i < 25 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, PercentileSingleElement) {
  const std::vector<double> xs = {42.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 37.0), 42.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW(percentile(empty, 50.0), std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101.0), std::invalid_argument);
}

TEST(ReservoirQuantiles, ExactWhileUnderCapacity) {
  ReservoirQuantiles q(1024);
  for (int i = 100; i >= 1; --i) q.add(static_cast<double>(i));
  EXPECT_EQ(q.count(), 100u);
  EXPECT_EQ(q.retained().size(), 100u);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(q.p50(), 50.5);
  std::vector<double> xs(100);
  for (int i = 0; i < 100; ++i) xs[i] = i + 1.0;
  EXPECT_DOUBLE_EQ(q.p95(), percentile(xs, 95.0));
  EXPECT_DOUBLE_EQ(q.p99(), percentile(xs, 99.0));
}

TEST(ReservoirQuantiles, ApproximatesLargeStreams) {
  // 200k uniform(0,1) samples through a 512-slot reservoir: quantiles land
  // within a few percent of truth.
  ReservoirQuantiles q(512);
  Rng rng(21);
  for (int i = 0; i < 200000; ++i) q.add(rng.uniform());
  EXPECT_EQ(q.count(), 200000u);
  EXPECT_EQ(q.retained().size(), 512u);
  EXPECT_NEAR(q.p50(), 0.5, 0.08);
  EXPECT_NEAR(q.p95(), 0.95, 0.05);
  EXPECT_NEAR(q.p99(), 0.99, 0.03);
  EXPECT_LE(q.p50(), q.p95());
  EXPECT_LE(q.p95(), q.p99());
}

TEST(ReservoirQuantiles, DeterministicForSeedAndOrder) {
  ReservoirQuantiles a(64, 7), b(64, 7);
  Rng ra(3), rb(3);
  for (int i = 0; i < 5000; ++i) a.add(ra.normal());
  for (int i = 0; i < 5000; ++i) b.add(rb.normal());
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
  EXPECT_DOUBLE_EQ(a.p99(), b.p99());
}

TEST(RunningStats, MergeTreeMatchesSequentialStream) {
  // The parallel-sweep discipline: per-cell partials merged in a fixed order
  // must equal one sequential pass for counts and means.
  RunningStats sequential;
  std::vector<RunningStats> partials(8);
  Rng rng(23);
  for (int i = 0; i < 400; ++i) {
    const double x = std::exponential_distribution<double>(0.5)(rng.engine());
    sequential.add(x);
    partials[static_cast<std::size_t>(i) % 8].add(x);
  }
  RunningStats merged;
  for (const RunningStats& p : partials) merged.merge(p);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(merged.sum(), sequential.sum(), 1e-9);
  EXPECT_NEAR(merged.stddev(), sequential.stddev(), 1e-10);
  EXPECT_DOUBLE_EQ(merged.min(), sequential.min());
  EXPECT_DOUBLE_EQ(merged.max(), sequential.max());
}

TEST(ReservoirQuantiles, MergeUnderCapacityEqualsSequential) {
  // While both operands retain their whole streams the merged reservoir is
  // the concatenated stream: quantiles match a single-pass reservoir exactly.
  ReservoirQuantiles left(1024), right(1024), sequential(1024);
  for (int i = 0; i < 300; ++i) {
    left.add(static_cast<double>(i));
    sequential.add(static_cast<double>(i));
  }
  for (int i = 300; i < 500; ++i) {
    right.add(static_cast<double>(i));
    sequential.add(static_cast<double>(i));
  }
  left.merge(right);
  EXPECT_EQ(left.count(), 500u);
  EXPECT_EQ(left.retained().size(), 500u);
  EXPECT_DOUBLE_EQ(left.p50(), sequential.p50());
  EXPECT_DOUBLE_EQ(left.p95(), sequential.p95());
  EXPECT_DOUBLE_EQ(left.p99(), sequential.p99());
}

TEST(ReservoirQuantiles, MergeIsDeterministicAndCountExact) {
  auto fill = [](ReservoirQuantiles& q, std::uint64_t seed, int n) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) q.add(rng.normal());
  };
  ReservoirQuantiles a1(128, 7), a2(128, 7), b1(128, 9), b2(128, 9);
  fill(a1, 3, 4000);
  fill(a2, 3, 4000);
  fill(b1, 5, 6000);
  fill(b2, 5, 6000);
  a1.merge(b1);
  a2.merge(b2);
  EXPECT_EQ(a1.count(), 10000u);
  EXPECT_EQ(a1.retained().size(), 128u);
  // Same operands, same merge: bit-identical quantiles.
  EXPECT_DOUBLE_EQ(a1.p50(), a2.p50());
  EXPECT_DOUBLE_EQ(a1.p95(), a2.p95());
  EXPECT_DOUBLE_EQ(a1.p99(), a2.p99());
}

TEST(ReservoirQuantiles, MergedQuantilesApproximatePooledStream) {
  ReservoirQuantiles a(512, 11), b(512, 13);
  Rng rng(31);
  std::vector<double> pooled;
  for (int i = 0; i < 30000; ++i) {
    const double x = rng.uniform();
    pooled.push_back(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), 30000u);
  EXPECT_NEAR(a.p50(), percentile(pooled, 50.0), 0.08);
  EXPECT_NEAR(a.p95(), percentile(pooled, 95.0), 0.05);
}

TEST(ReservoirQuantiles, MergeWeighsSaturatedOperandsByCount) {
  // 2000 high-valued observations squeezed through a small saturated
  // reservoir must dominate 10 low-valued ones even though the retained
  // samples are closer in size (32 vs 10): the merge weighs elements by
  // the observations they stand for, not one each.
  ReservoirQuantiles small(1024), saturated(32, 5);
  for (int i = 0; i < 10; ++i) small.add(0.0);
  Rng rng(41);
  for (int i = 0; i < 2000; ++i) saturated.add(100.0 + rng.uniform());
  small.merge(saturated);
  EXPECT_EQ(small.count(), 2010u);
  // True p50 of the pooled stream is ~100.5; equal-weight concatenation
  // of the samples would put ~24% of the mass at 0 and drag p25 to 0.
  EXPECT_GT(small.p50(), 99.0);
  EXPECT_GT(small.quantile(25.0), 99.0);
}

TEST(ReservoirQuantiles, AdoptSubsamplesUniformlyNotByPrefix) {
  // A small empty reservoir adopting a large unsaturated one (whose sample
  // is in insertion order) must subsample uniformly: keeping a prefix of
  // 500 ascending values would drag p50 to ~16 instead of ~250.
  ReservoirQuantiles dst(32), src(1024);
  for (int i = 0; i < 500; ++i) src.add(static_cast<double>(i));
  dst.merge(src);
  EXPECT_EQ(dst.count(), 500u);
  EXPECT_EQ(dst.retained().size(), 32u);
  EXPECT_NEAR(dst.p50(), 249.5, 90.0);
}

TEST(ReservoirQuantiles, MergeWithEmptySides) {
  ReservoirQuantiles a(64), b(64);
  for (int i = 1; i <= 10; ++i) a.add(static_cast<double>(i));
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 10u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 10u);
  EXPECT_DOUBLE_EQ(b.p50(), 5.5);
}

TEST(ReservoirQuantiles, RejectsBadInput) {
  EXPECT_THROW(ReservoirQuantiles(0), std::invalid_argument);
  ReservoirQuantiles q;
  EXPECT_THROW(q.quantile(50.0), std::invalid_argument);  // empty
  q.add(1.0);
  EXPECT_THROW(q.quantile(-1.0), std::invalid_argument);
  EXPECT_THROW(q.quantile(101.0), std::invalid_argument);
}

TEST(Stats, KahanSumHandlesSmallTerms) {
  std::vector<double> xs(1000000, 1e-10);
  xs.push_back(1.0);
  EXPECT_NEAR(kahan_sum(xs), 1.0 + 1e-4, 1e-12);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 1.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"scheme", "time"});
  table.add_row({"naive", "1.5"});
  table.add_row({"heter-aware", "0.333"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("scheme"), std::string::npos);
  EXPECT_NE(out.find("heter-aware"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TablePrinter, RejectsRaggedRow) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TablePrinter, NumFormatsFixed) {
  EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(Args, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--iters", "50", "--sigma=0.25", "--verbose"};
  Args args(5, argv);
  EXPECT_EQ(args.get_int("iters", 0), 50);
  EXPECT_DOUBLE_EQ(args.get_double("sigma", 0.0), 0.25);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_NO_THROW(args.check_unused());
}

TEST(Args, GetListAccumulatesRepeatedFlags) {
  const char* argv[] = {"prog", "--scenario-file", "a.scn",
                        "--scenario-file=b.scn", "--scenario-file", "c.scn",
                        "--other", "x"};
  Args args(8, argv);
  EXPECT_EQ(args.get_list("scenario-file"),
            (std::vector<std::string>{"a.scn", "b.scn", "c.scn"}));
  // Single-value accessors keep their last-wins behaviour.
  EXPECT_EQ(args.get("scenario-file", ""), "c.scn");
  EXPECT_EQ(args.get_list("other"), (std::vector<std::string>{"x"}));
  EXPECT_TRUE(args.get_list("absent").empty());
  EXPECT_NO_THROW(args.check_unused());
}

TEST(Args, GetListRejectsBareFlags) {
  const char* argv[] = {"prog", "--scenario-file", "--threads", "4"};
  Args args(4, argv);
  EXPECT_THROW(args.get_list("scenario-file"), std::invalid_argument);
}

TEST(Args, DetectsUnusedOptions) {
  const char* argv[] = {"prog", "--typo", "3"};
  Args args(3, argv);
  EXPECT_THROW(args.check_unused(), std::invalid_argument);
}

TEST(Args, RejectsMalformedOption) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

TEST(Args, BooleanParsing) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=maybe"};
  Args args(4, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_THROW(args.get_bool("c", false), std::invalid_argument);
}

TEST(Args, BareFlagRejectsValueTypedReads) {
  // `--csv --threads 4`: the value of --csv was swallowed by the next
  // option; reading it as a string must fail loudly, not return "true"
  // (which used to end up as a file literally named "true").
  const char* argv[] = {"prog", "--csv", "--threads", "4"};
  Args args(4, argv);
  EXPECT_EQ(args.get_int("threads", 0), 4);
  try {
    args.get("csv", "-");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--csv"), std::string::npos);
  }
  // The same bare token is still a perfectly good boolean.
  EXPECT_TRUE(args.get_bool("csv", false));
}

TEST(Args, BareFlagRejectsNumericReads) {
  const char* argv[] = {"prog", "--iters", "--csv", "out.csv"};
  Args args(4, argv);
  EXPECT_THROW(args.get_int("iters", 7), std::invalid_argument);
  EXPECT_THROW(args.get_double("iters", 0.5), std::invalid_argument);
}

TEST(Args, MalformedNumbersNameTheFlag) {
  const char* argv[] = {"prog", "--iters=abc", "--sigma=0.5x", "--k=12"};
  Args args(4, argv);
  EXPECT_EQ(args.get_int("k", 0), 12);
  try {
    args.get_int("iters", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--iters=abc"), std::string::npos);
  }
  try {
    args.get_double("sigma", 0.0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--sigma=0.5x"), std::string::npos);
  }
}

TEST(Args, NegativeValuesStillParse) {
  const char* argv[] = {"prog", "--delta", "-3", "--offset=-0.25"};
  Args args(4, argv);
  EXPECT_EQ(args.get_int("delta", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("offset", 0.0), -0.25);
}

TEST(Args, TokenSpanConstructorMatchesArgv) {
  // The bench mains pre-split argv (google-benchmark keeps --benchmark_*)
  // and feed the rest in as tokens; both `--flag value` and `--flag=value`
  // must parse under the same strict rules, errors naming the flag.
  const std::vector<std::string> tokens = {"--json", "out.json",
                                           "--iters=12", "--quiet"};
  Args args{std::span<const std::string>(tokens)};
  EXPECT_EQ(args.get("json", "-"), "out.json");
  EXPECT_EQ(args.get_int("iters", 0), 12);
  EXPECT_TRUE(args.get_bool("quiet", false));
  EXPECT_NO_THROW(args.check_unused());

  const std::vector<std::string> bare = {"--json", "--iters", "3"};
  Args swallowed{std::span<const std::string>(bare)};
  try {
    swallowed.get("json", "-");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--json"), std::string::npos);
  }

  const std::vector<std::string> malformed = {"oops"};
  EXPECT_THROW(Args{std::span<const std::string>(malformed)},
               std::invalid_argument);
}

TEST(Error, RequireNamesTheRepoRelativeSourceFile) {
  // Error notes land in CSVs, so the location must not depend on where the
  // checkout lives: the build maps the source prefix out of __FILE__.
  try {
    HGC_REQUIRE(1 + 1 == 3, "arithmetic");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(" at tests/test_util.cpp:"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hgc
