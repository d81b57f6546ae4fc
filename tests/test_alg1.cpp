// Tests for Algorithm 1: the CB = 1 identity (Lemma 2), decoding-vector
// construction, and behavior on edge cases.
#include <gtest/gtest.h>

#include "core/alg1.hpp"
#include "core/allocation.hpp"
#include "linalg/matrix.hpp"
#include "linalg_reference.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

Assignment example1_assignment() {
  return cyclic_assignment(std::vector<std::size_t>{1, 2, 3, 4, 4}, 7);
}

// a·B through the sparse kernel (B is CSR since the sparse refactor).
Vector apply_transpose(const SparseRowMatrix& b, const Vector& a) {
  Vector y(b.cols());
  sparse::gemv_t(b, a, y);
  return y;
}

TEST(Alg1, CbEqualsOnes) {
  Rng rng(11);
  const auto build = build_alg1(example1_assignment(), 7, 1, rng);
  const Matrix cb = build.code.c() * ref::to_dense(build.b);
  EXPECT_LT(ref::max_abs_diff(cb, Matrix::ones(2, 7)), 1e-9);
}

TEST(Alg1, SupportMatchesAssignment) {
  Rng rng(12);
  const Assignment assignment = example1_assignment();
  const auto build = build_alg1(assignment, 7, 1, rng);
  for (std::size_t w = 0; w < assignment.size(); ++w) {
    const auto cols = build.b.row_cols(w);
    const std::vector<PartitionId> support(cols.begin(), cols.end());
    EXPECT_EQ(support, assignment[w]) << "worker " << w;
  }
}

TEST(Alg1, RejectsInvalidAllocation) {
  Rng rng(13);
  const Assignment bad = {{0}, {0}, {1}};  // partition 1 has 1 copy, 0 has 2
  EXPECT_THROW(build_alg1(bad, 2, 1, rng), std::invalid_argument);
}

TEST(Alg1, DecodeEveryStragglerSingleton) {
  Rng rng(14);
  const auto build = build_alg1(example1_assignment(), 7, 1, rng);
  const std::size_t m = 5;
  for (std::size_t straggler = 0; straggler < m; ++straggler) {
    std::vector<bool> received(m, true);
    received[straggler] = false;
    const auto a = build.code.decode(received, m);
    ASSERT_TRUE(a.has_value()) << "straggler " << straggler;
    EXPECT_DOUBLE_EQ((*a)[straggler], 0.0);
    // a·B = 1.
    const Vector ab = apply_transpose(build.b, *a);
    for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-9);
  }
}

TEST(Alg1, DecodeWithNoStragglers) {
  Rng rng(15);
  const auto build = build_alg1(example1_assignment(), 7, 1, rng);
  const std::vector<bool> received(5, true);
  const auto a = build.code.decode(received, 5);
  ASSERT_TRUE(a.has_value());
  const Vector ab = apply_transpose(build.b, *a);
  for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Alg1, DecodeFailsBeyondTolerance) {
  Rng rng(16);
  const auto build = build_alg1(example1_assignment(), 7, 1, rng);
  std::vector<bool> received(5, true);
  received[3] = false;
  received[4] = false;  // two stragglers, s = 1
  EXPECT_FALSE(build.code.decode(received, 5).has_value());
}

TEST(Alg1, IdleWorkersGetZeroRowsAndStayOutOfDecoding) {
  Rng rng(17);
  // Worker 1 holds nothing; partitions replicated twice across 0, 2, 3.
  const Assignment assignment = {{0, 1}, {}, {0}, {1}};
  const auto build = build_alg1(assignment, 2, 1, rng);
  EXPECT_EQ(build.b.row_nnz(1), 0u);
  for (std::size_t j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(ref::at(build.b, 1, j), 0.0);
  EXPECT_EQ(build.code.workers(), (std::vector<WorkerId>{0, 2, 3}));
  // Decoding ignores worker 1's received flag entirely.
  std::vector<bool> received = {true, false, true, true};
  const auto a = build.code.decode(received, 4);
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ((*a)[1], 0.0);
}

TEST(Alg1, RequiresMoreActiveWorkersThanS) {
  Rng rng(18);
  // Only 2 active workers but s = 1 means each partition needs 2 copies on
  // distinct workers — fine; s = 2 would need 3 active workers.
  const Assignment assignment = {{0}, {0}, {}};
  EXPECT_NO_THROW(build_alg1(assignment, 1, 1, rng));
  const Assignment impossible = {{0}, {0}, {0}};
  // 3 copies, s=2, 3 active workers: active > s fails (3 > 2 holds), so this
  // one actually builds.
  EXPECT_NO_THROW(build_alg1(impossible, 1, 2, rng));
}

TEST(Alg1Code, EmptyCodeDecodesNothing) {
  const Alg1Code empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.decode(std::vector<bool>(3, true), 3).has_value());
}

// Property sweep: random heterogeneous allocations, every straggler pattern
// of size <= s decodes to exact coefficients.
struct Alg1Case {
  std::size_t m, s, k;
};

class Alg1Sweep : public ::testing::TestWithParam<Alg1Case> {};

TEST_P(Alg1Sweep, AllPatternsDecodeExactly) {
  const auto [m, s, k] = GetParam();
  Rng rng(1000 + m * 37 + s * 7 + k);
  Throughputs c(m);
  for (double& x : c) x = rng.uniform(1.0, 8.0);
  const auto assignment = cyclic_assignment(heter_aware_counts(c, k, s), k);
  const auto build = build_alg1(assignment, k, s, rng);

  // Enumerate straggler subsets of size exactly s via bitmask (m small).
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    if (static_cast<std::size_t>(__builtin_popcountll(mask)) > s) continue;
    std::vector<bool> received(m);
    for (std::size_t w = 0; w < m; ++w) received[w] = !(mask >> w & 1);
    const auto a = build.code.decode(received, m);
    ASSERT_TRUE(a.has_value()) << "mask " << mask;
    const Vector ab = apply_transpose(build.b, *a);
    for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-7) << "mask " << mask;
    for (std::size_t w = 0; w < m; ++w) {
      if (mask >> w & 1) {
        EXPECT_DOUBLE_EQ((*a)[w], 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Alg1Sweep,
    ::testing::Values(Alg1Case{4, 1, 4}, Alg1Case{5, 1, 7}, Alg1Case{5, 2, 5},
                      Alg1Case{6, 1, 12}, Alg1Case{6, 2, 9}, Alg1Case{7, 3, 7},
                      Alg1Case{8, 2, 8}, Alg1Case{9, 1, 18},
                      Alg1Case{10, 2, 10}),
    [](const auto& test_info) {
      return "m" + std::to_string(test_info.param.m) + "_s" +
             std::to_string(test_info.param.s) + "_k" + std::to_string(test_info.param.k);
    });

}  // namespace
}  // namespace hgc
