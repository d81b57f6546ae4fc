// Property tests for the linalg kernel + workspace layer: kernels against
// naive references, reused workspaces against fresh ones (bit for bit) over
// randomized shapes, the sparse B_Rᵀ packing against the dense gather, and
// the zero-allocations-after-warm-up regression for
// robustness::satisfies_condition1, pinned with an instrumented global
// allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/cyclic.hpp"
#include "core/robustness.hpp"
#include "linalg/kernels.hpp"
#include "linalg/kernels_dispatch.hpp"
#include "linalg/nullspace.hpp"
#include "linalg/sparse.hpp"
#include "linalg/workspace.hpp"
#include "linalg_reference.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

// Instruments this whole binary; the zero-alloc regression snapshots the
// counter around a warmed-up call, so gtest's own bookkeeping outside that
// window never pollutes the measurement.
#include "util/alloc_instrument.hpp"

namespace hgc {
namespace {

using alloc_instrument::allocation_count;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  return m;
}

Vector random_vector(std::size_t n, Rng& rng) {
  Vector v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

TEST(AllocationInstrument, CountsHeapAllocations) {
  const std::size_t before = allocation_count();
  Vector v(257, 1.0);
  EXPECT_GT(allocation_count(), before);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
}

// ------------------------------------------------- kernels vs references --

TEST(Kernels, DotMatchesNaive) {
  Rng rng(101);
  for (std::size_t n = 0; n < 135; n += (n < 9 ? 1 : 13)) {
    const Vector a = random_vector(n, rng);
    const Vector b = random_vector(n, rng);
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) ref += a[i] * b[i];
    EXPECT_NEAR(kernels::dot(a, b), ref, 1e-10) << "n=" << n;
  }
}

TEST(Kernels, DotIsDeterministic) {
  // Same input → bit-identical result, regardless of repetition.
  Rng rng(102);
  const Vector a = random_vector(1031, rng);
  const Vector b = random_vector(1031, rng);
  const double first = kernels::dot(a, b);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(kernels::dot(a, b), first);
}

TEST(Kernels, AxpyScalMatchNaive) {
  Rng rng(103);
  for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 130u}) {
    const Vector x = random_vector(n, rng);
    Vector y = random_vector(n, rng);
    Vector ref = y;
    kernels::axpy(0.37, x, y);
    for (std::size_t i = 0; i < n; ++i) ref[i] += 0.37 * x[i];
    for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[i], ref[i]);

    kernels::scal(-1.25, y);
    for (std::size_t i = 0; i < n; ++i) ref[i] *= -1.25;
    for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[i], ref[i]);
  }
}

TEST(Kernels, GemvMatchesApply) {
  Rng rng(104);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(trial % 7);
    const std::size_t n = 1 + static_cast<std::size_t>((trial * 3) % 11);
    const Matrix a = random_matrix(m, n, rng);
    const Vector x = random_vector(n, rng);
    Vector y(m);
    kernels::gemv(a.data().data(), n, m, n, x, y);
    for (std::size_t r = 0; r < m; ++r) {
      double ref = 0.0;
      for (std::size_t c = 0; c < n; ++c) ref += a(r, c) * x[c];
      EXPECT_NEAR(y[r], ref, 1e-10);
    }
  }
}

TEST(Kernels, GemvTransposeMatchesNaive) {
  Rng rng(105);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(trial % 6);
    const std::size_t n = 1 + static_cast<std::size_t>((trial * 5) % 9);
    const Matrix a = random_matrix(m, n, rng);
    const Vector x = random_vector(m, rng);
    Vector y(n, 99.0);  // gemv_t must overwrite, not accumulate
    kernels::gemv_t(a.data().data(), n, m, n, x, y);
    for (std::size_t c = 0; c < n; ++c) {
      double ref = 0.0;
      for (std::size_t r = 0; r < m; ++r) ref += x[r] * a(r, c);
      EXPECT_NEAR(y[c], ref, 1e-10);
    }
  }
}

TEST(Kernels, GemvHonorsLeadingDimension) {
  // A 2×2 sub-block of a 3-column matrix: lda = 3 ≠ cols = 2.
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Vector x{1.0, 1.0};
  Vector y(2);
  kernels::gemv(a.data().data(), 3, 2, 2, x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
}

// ------------------------------- workspace reuse vs fresh workspaces --
//
// A workspace is reused call over call by every hot path, so a reused one
// must give exactly the bits a fresh one gives, whatever it solved before.

void expect_same_bits(const Vector& got, const Vector& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << where << " x[" << i << "]";
}

TEST(LuWorkspace, ReusedWorkspaceMatchesFreshOverRandomShapes) {
  Rng rng(107);
  LuWorkspace ws;  // one workspace across every shape
  Vector x;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 9);
    const Matrix a = random_matrix(n, n, rng);
    const Vector b = random_vector(n, rng);
    ASSERT_TRUE(ws.factor(a)) << "random matrix singular?";
    ws.solve_into(b, x);
    LuWorkspace fresh;
    Vector ref;
    ASSERT_TRUE(fresh.factor(a));
    fresh.solve_into(b, ref);
    expect_same_bits(x, ref, "trial " + std::to_string(trial));
    const Vector ax = ref::apply(a, x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
  }
}

TEST(LuWorkspace, FactorColsMatchesSelectCols) {
  Rng rng(108);
  const Matrix c = random_matrix(4, 9, rng);
  const std::vector<std::size_t> cols{7, 2, 5, 0};
  const Vector b{1.0, 1.0, 1.0, 1.0};
  LuWorkspace ws, ref_ws;
  Vector x, ref;
  ASSERT_TRUE(ws.factor_cols(c, cols));
  ws.solve_into(b, x);
  ASSERT_TRUE(ref_ws.factor(ref::select_cols(c, cols)));
  ref_ws.solve_into(b, ref);
  expect_same_bits(x, ref, "factor_cols");
}

TEST(QrWorkspace, ReusedWorkspaceMatchesFreshOverRandomShapes) {
  Rng rng(109);
  QrWorkspace ws;  // one workspace across every shape
  Vector x;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(trial % 8);
    const std::size_t n = 1 + static_cast<std::size_t>((trial * 3) % 6);
    Matrix a = random_matrix(m, n, rng);
    // Every third trial is rank-deficient: last column = first + second.
    if (trial % 3 == 2 && n >= 3)
      for (std::size_t i = 0; i < m; ++i) a(i, n - 1) = a(i, 0) + a(i, 1);
    const Vector b = random_vector(m, rng);
    ws.factor(a);
    const double residual = ws.solve_into(b, x);
    QrWorkspace fresh;
    Vector ref;
    fresh.factor(a);
    const double ref_residual = fresh.solve_into(b, ref);
    const std::string where = "trial " + std::to_string(trial);
    EXPECT_EQ(ws.rank(), fresh.rank()) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(residual),
              std::bit_cast<std::uint64_t>(ref_residual))
        << where;
    expect_same_bits(x, ref, where);
  }
}

TEST(QrWorkspace, RankDeficientSolveIsExactOnItsRange) {
  Rng rng(110);
  Matrix a(5, 3);
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = rng.normal();
    a(i, 1) = rng.normal();
    a(i, 2) = a(i, 0) + a(i, 1);  // rank 2
  }
  // b in the column space: the basic solution must reproduce it.
  const Vector b = ref::apply(a, Vector{0.5, -1.0, 2.0});
  QrWorkspace ws;
  Vector x;
  ws.factor(a);
  EXPECT_EQ(ws.rank(), 2u);
  EXPECT_NEAR(ws.solve_into(b, x), 0.0, 1e-10);
  const Vector ax = ref::apply(a, x);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(QrWorkspace, FactorTransposedMatchesMaterializedTranspose) {
  // The decoder's sparse scatter must pack exactly the bytes of the dense
  // gather of B_R transposed: same rank, same residual bits,
  // same solution bits.
  Rng rng(111);
  QrWorkspace ws, ref_ws;
  Vector x, ref;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 4 + static_cast<std::size_t>(trial % 5);
    const std::size_t k = 2 + static_cast<std::size_t>((trial * 3) % 7);
    Matrix dense = random_matrix(m, k, rng);
    for (double& v : dense.data())
      if (rng.uniform(0.0, 1.0) < 0.3) v = 0.0;  // structural zeros
    const SparseRowMatrix b = ref::from_dense(dense);
    // A random row subset, unsorted order on odd trials.
    std::vector<std::size_t> rows;
    for (std::size_t w = 0; w < m; ++w)
      if (rng.uniform(0.0, 1.0) < 0.7) rows.push_back(w);
    if (rows.empty()) rows.push_back(static_cast<std::size_t>(trial) % m);
    if (trial % 2 == 1) std::swap(rows.front(), rows.back());

    const Vector ones(k, 1.0);
    ws.factor_transposed(b, rows);
    const double residual = ws.solve_into(ones, x);
    ref_ws.factor(ref::transposed(ref::select_rows(dense, rows)));
    const double ref_residual = ref_ws.solve_into(ones, ref);
    const std::string where = "trial " + std::to_string(trial);
    EXPECT_EQ(ws.rank(), ref_ws.rank()) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(residual),
              std::bit_cast<std::uint64_t>(ref_residual))
        << where;
    expect_same_bits(x, ref, where);
  }
}

TEST(QrWorkspace, FactorTransposedRejectsOutOfRangeRows) {
  const SparseRowMatrix b = ref::from_dense(Matrix::ones(3, 2));
  const std::vector<std::size_t> bad{1, 3};
  QrWorkspace ws;
  EXPECT_THROW(ws.factor_transposed(b, bad), std::invalid_argument);
}

TEST(NullSpace, ReusedScratchMatchesFresh) {
  Rng rng(112);
  Matrix rref, basis;
  std::vector<std::size_t> pivots;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t rows = 1 + static_cast<std::size_t>(trial % 4);
    const std::size_t cols = rows + static_cast<std::size_t>(trial % 3);
    const Matrix a = random_matrix(rows, cols, rng);
    null_space_basis_into(a, rref, pivots, basis);
    Matrix fresh_rref, ref;
    std::vector<std::size_t> fresh_pivots;
    null_space_basis_into(a, fresh_rref, fresh_pivots, ref);
    ASSERT_EQ(basis.rows(), ref.rows());
    ASSERT_EQ(basis.cols(), ref.cols());
    EXPECT_EQ(ref::max_abs_diff(basis, ref), 0.0);
    EXPECT_EQ(pivots, fresh_pivots);
  }
}

// ------------------------------------------- decode-path equivalences --

/// Cyclic(8, 2)'s B, and the same matrix with rows 0-2 zeroed: no longer
/// robust to two stragglers.
struct GoodAndBroken {
  SparseRowMatrix good;
  SparseRowMatrix broken;
};

GoodAndBroken good_and_broken(const CyclicScheme& scheme) {
  Matrix broken = ref::to_dense(scheme.sparse_matrix());
  for (std::size_t j = 0; j < broken.cols(); ++j)
    broken(0, j) = broken(1, j) = broken(2, j) = 0.0;
  return {scheme.sparse_matrix(), ref::from_dense(broken)};
}

TEST(Robustness, OnesInRowSpanAgreesWithGenericDecode) {
  // generic_decode and ones_in_row_span are the same solve: decodability
  // through the scheme must match the row-span verdict on every pattern.
  Rng rng(113);
  const CyclicScheme scheme(8, 2, rng);
  const auto [good, broken] = good_and_broken(scheme);
  EXPECT_TRUE(satisfies_condition1(good, 2));
  EXPECT_FALSE(satisfies_condition1(broken, 2));
  for (std::size_t mask = 1; mask < (1u << 8); ++mask) {
    std::vector<bool> received(8);
    std::vector<std::size_t> rows;
    for (std::size_t w = 0; w < 8; ++w) {
      received[w] = ((mask >> w) & 1u) != 0;
      if (received[w]) rows.push_back(w);
    }
    EXPECT_EQ(ones_in_row_span(good, rows),
              scheme.decoding_coefficients(received).has_value())
        << "mask " << mask;
  }
  EXPECT_FALSE(ones_in_row_span(good, std::vector<std::size_t>{}));
}

TEST(Robustness, Condition1ZeroAllocationsAfterWarmup) {
  Rng rng(114);
  const CyclicScheme scheme(8, 2, rng);
  const SparseRowMatrix& b = scheme.sparse_matrix();
  // Warm-up sizes this thread's workspace and buffers (C(8,2) = 28 solves).
  ASSERT_TRUE(satisfies_condition1(b, 2));

  const std::size_t before = allocation_count();
  const bool ok = satisfies_condition1(b, 2);
  const std::size_t after = allocation_count();
  EXPECT_TRUE(ok);
  EXPECT_EQ(after - before, 0u)
      << "satisfies_condition1 allocated on a warmed-up thread workspace";
}

TEST(Robustness, WorkspaceSolvesAreHistoryIndependent) {
  // A workspace that just solved a big shape must give bit-identical
  // results on a small one (full state reset per factor) — this is what
  // lets the sweep share one workspace per thread without perturbing the
  // byte-identical-output contract.
  Rng rng(115);
  const Matrix big = random_matrix(12, 7, rng);
  const Matrix small = random_matrix(3, 2, rng);
  const Vector b_big = random_vector(12, rng);
  const Vector b_small = random_vector(3, rng);

  QrWorkspace fresh;
  Vector x_fresh;
  fresh.factor(small);
  fresh.solve_into(b_small, x_fresh);

  QrWorkspace used;
  Vector x_used;
  used.factor(big);
  used.solve_into(b_big, x_used);
  used.factor(small);
  used.solve_into(b_small, x_used);

  ASSERT_EQ(x_used.size(), x_fresh.size());
  for (std::size_t i = 0; i < x_fresh.size(); ++i)
    EXPECT_EQ(x_used[i], x_fresh[i]);  // bitwise
}

TEST(Robustness, ThreadLocalWorkspacesSolveConcurrently) {
  // The sweep runs satisfies_condition1 from pool threads, each hitting its
  // own thread_local workspace. Hammer that path from many threads at once
  // (the reason this binary carries the `threaded` ctest label and runs
  // under TSan) and require every thread to reproduce the single-threaded
  // verdicts exactly.
  Rng rng(116);
  const CyclicScheme scheme(8, 2, rng);
  const auto [good, broken] = good_and_broken(scheme);

  const bool good_ref = satisfies_condition1(good, 2);
  const bool broken_ref = satisfies_condition1(broken, 2);
  ASSERT_TRUE(good_ref);
  ASSERT_FALSE(broken_ref);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int iter = 0; iter < 16; ++iter) {
        if (satisfies_condition1(good, 2) != good_ref ||
            satisfies_condition1(broken, 2) != broken_ref)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- Cross-backend bit-identity -----------------------------------------
//
// The sweep's byte-identical-output guarantee reduces to: every kernel
// backend produces the SAME BITS as the scalar reference for the same
// inputs. These tests compare through std::bit_cast — not a tolerance —
// over randomized shapes, deliberately misaligned spans (SIMD backends use
// unaligned loads; a backend that secretly required alignment would peel
// differently and change the summation order), and every tail length
// 0..15 around the 16-element block size.

// Restores whatever backend the process had selected, so these tests can
// flip backends without perturbing the rest of the binary.
class BackendRestorer {
 public:
  BackendRestorer() : original_(kernels::active_backend()) {}
  ~BackendRestorer() { kernels::set_backend(original_); }

 private:
  kernels::Backend original_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<kernels::Backend> available_simd_backends() {
  BackendRestorer restore;
  std::vector<kernels::Backend> simd;
  if (kernels::set_backend(kernels::Backend::kAvx2))
    simd.push_back(kernels::Backend::kAvx2);
  return simd;
}

std::vector<double> random_buffer(std::size_t n, Rng& rng) {
  std::vector<double> buf(n);
  for (double& v : buf) v = rng.normal();
  return buf;
}

TEST(KernelBackends, VectorKernelsBitIdenticalToScalar) {
  const std::vector<kernels::Backend> simd = available_simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend available on this host";
  BackendRestorer restore;
  Rng rng(20260807);

  // Every tail length 0..15 (sizes < 16 are all tail), plus bodies with
  // every tail on top, plus a couple of odd mid sizes.
  std::vector<std::size_t> lengths;
  for (std::size_t t = 0; t < 16; ++t) {
    lengths.push_back(t);
    lengths.push_back(128 + t);
  }
  lengths.push_back(33);
  lengths.push_back(95);

  for (kernels::Backend backend : simd) {
    for (std::size_t n : lengths) {
      for (std::size_t offset : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}}) {
        const std::vector<double> xa = random_buffer(offset + n, rng);
        const std::vector<double> xb = random_buffer(offset + n, rng);
        const std::vector<double> y0 = random_buffer(offset + n, rng);
        const double alpha = rng.normal();
        const std::span<const double> a =
            std::span<const double>(xa).subspan(offset);
        const std::span<const double> b =
            std::span<const double>(xb).subspan(offset);

        const std::vector<double> x4a = random_buffer(n, rng);
        const std::vector<double> x4b = random_buffer(n, rng);
        const double alpha4[4] = {rng.normal(), rng.normal(), rng.normal(),
                                  rng.normal()};
        const double* const x4[4] = {a.data(), x4a.data(), b.data(),
                                     x4b.data()};

        ASSERT_TRUE(kernels::set_backend(kernels::Backend::kScalar));
        const double dot_ref = kernels::dot(a, b);
        std::vector<double> axpy_ref = y0;
        kernels::axpy(alpha, a, std::span<double>(axpy_ref).subspan(offset));
        std::vector<double> scal_ref = y0;
        kernels::scal(alpha, std::span<double>(scal_ref).subspan(offset));
        std::vector<double> axpy4_ref = y0;
        kernels::axpy4(alpha4, x4,
                       std::span<double>(axpy4_ref).subspan(offset));

        ASSERT_TRUE(kernels::set_backend(backend));
        const double dot_simd = kernels::dot(a, b);
        std::vector<double> axpy_simd = y0;
        kernels::axpy(alpha, a,
                      std::span<double>(axpy_simd).subspan(offset));
        std::vector<double> scal_simd = y0;
        kernels::scal(alpha, std::span<double>(scal_simd).subspan(offset));
        std::vector<double> axpy4_simd = y0;
        kernels::axpy4(alpha4, x4,
                       std::span<double>(axpy4_simd).subspan(offset));

        const std::string where = std::string(kernels::backend_name(backend)) +
                                  " n=" + std::to_string(n) +
                                  " offset=" + std::to_string(offset);
        EXPECT_EQ(bits(dot_ref), bits(dot_simd)) << "dot " << where;
        for (std::size_t i = 0; i < axpy_ref.size(); ++i) {
          ASSERT_EQ(bits(axpy_ref[i]), bits(axpy_simd[i]))
              << "axpy[" << i << "] " << where;
          ASSERT_EQ(bits(scal_ref[i]), bits(scal_simd[i]))
              << "scal[" << i << "] " << where;
          ASSERT_EQ(bits(axpy4_ref[i]), bits(axpy4_simd[i]))
              << "axpy4[" << i << "] " << where;
        }
      }
    }
  }
}

TEST(KernelBackends, MatrixKernelsBitIdenticalToScalar) {
  const std::vector<kernels::Backend> simd = available_simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend available on this host";
  BackendRestorer restore;
  Rng rng(977);

  struct Shape {
    std::size_t rows, cols, pad;  // lda = cols + pad exercises sub-blocks
  };
  const Shape shapes[] = {{1, 1, 0},  {2, 3, 0},  {3, 17, 2}, {5, 16, 0},
                          {7, 35, 3}, {8, 69, 1}, {58, 116, 0}};

  for (kernels::Backend backend : simd) {
    for (const Shape& s : shapes) {
      const std::size_t lda = s.cols + s.pad;
      const std::vector<double> a0 = random_buffer(s.rows * lda, rng);
      const std::vector<double> x_rows = random_buffer(s.rows, rng);
      const std::vector<double> x_cols = random_buffer(s.cols, rng);

      ASSERT_TRUE(kernels::set_backend(kernels::Backend::kScalar));
      std::vector<double> gemv_ref(s.rows);
      kernels::gemv(a0.data(), lda, s.rows, s.cols, x_cols, gemv_ref);
      std::vector<double> gemv_t_ref(s.cols);
      kernels::gemv_t(a0.data(), lda, s.rows, s.cols, x_rows, gemv_t_ref);

      ASSERT_TRUE(kernels::set_backend(backend));
      std::vector<double> gemv_simd(s.rows);
      kernels::gemv(a0.data(), lda, s.rows, s.cols, x_cols, gemv_simd);
      std::vector<double> gemv_t_simd(s.cols);
      kernels::gemv_t(a0.data(), lda, s.rows, s.cols, x_rows, gemv_t_simd);

      const std::string where = std::string(kernels::backend_name(backend)) +
                                " rows=" + std::to_string(s.rows) +
                                " cols=" + std::to_string(s.cols) +
                                " lda=" + std::to_string(lda);
      for (std::size_t r = 0; r < s.rows; ++r)
        ASSERT_EQ(bits(gemv_ref[r]), bits(gemv_simd[r]))
            << "gemv[" << r << "] " << where;
      for (std::size_t c = 0; c < s.cols; ++c)
        ASSERT_EQ(bits(gemv_t_ref[c]), bits(gemv_t_simd[c]))
            << "gemv_t[" << c << "] " << where;
    }
  }
}

TEST(KernelBackends, Axpy4MatchesFourSequentialAxpys) {
  // axpy4's contract: bit-identical to four sequential axpys, in every
  // backend (the blocked LU's determinism proof leans on this).
  BackendRestorer restore;
  Rng rng(4242);
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  for (kernels::Backend b : available_simd_backends()) backends.push_back(b);
  for (kernels::Backend backend : backends) {
    ASSERT_TRUE(kernels::set_backend(backend));
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{96}, std::size_t{101}}) {
      const std::vector<double> x0 = random_buffer(n, rng);
      const std::vector<double> x1 = random_buffer(n, rng);
      const std::vector<double> x2 = random_buffer(n, rng);
      const std::vector<double> x3 = random_buffer(n, rng);
      const std::vector<double> y0 = random_buffer(n, rng);
      const double alpha[4] = {rng.normal(), rng.normal(), rng.normal(),
                               rng.normal()};
      const double* const x[4] = {x0.data(), x1.data(), x2.data(),
                                  x3.data()};
      std::vector<double> fused = y0;
      kernels::axpy4(alpha, x, fused);
      std::vector<double> sequential = y0;
      kernels::axpy(alpha[0], x0, sequential);
      kernels::axpy(alpha[1], x1, sequential);
      kernels::axpy(alpha[2], x2, sequential);
      kernels::axpy(alpha[3], x3, sequential);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(bits(fused[i]), bits(sequential[i]))
            << kernels::backend_name(backend) << " n=" << n << " i=" << i;
    }
  }
}

TEST(KernelBackends, RankKUpdateMatchesPerSampleRank1Oracle) {
  // rank_k_update's contract: bit-identical to n rank-1 updates
  // G[r][c] += d_s[r]·x_s[c], s ascending, in every backend — over every
  // column tail mod 16, odd and even row counts, and sample counts around
  // the 64-row block. The x rows are scattered through one buffer in
  // shuffled order, as the model's row gathers are.
  BackendRestorer restore;
  Rng rng(5150);
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  for (kernels::Backend b : available_simd_backends()) backends.push_back(b);
  for (kernels::Backend backend : backends) {
    ASSERT_TRUE(kernels::set_backend(backend));
    for (std::size_t cols = 16; cols < 32; ++cols) {
      for (std::size_t rows : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                               std::size_t{10}}) {
        for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                              std::size_t{64}, std::size_t{65}}) {
          const std::size_t ldg = cols + 3;
          const std::vector<double> g0 = random_buffer(rows * ldg, rng);
          const std::vector<double> d = random_buffer(n * rows, rng);
          const std::vector<double> pool = random_buffer((n + 1) * cols, rng);
          std::vector<const double*> x(n);
          for (std::size_t s = 0; s < n; ++s)
            x[s] = pool.data() + ((s * 7 + 3) % (n + 1)) * cols;

          std::vector<double> oracle = g0;
          for (std::size_t s = 0; s < n; ++s)
            for (std::size_t r = 0; r < rows; ++r)
              for (std::size_t c = 0; c < cols; ++c)
                oracle[r * ldg + c] += d[s * rows + r] * x[s][c];
          std::vector<double> tiled = g0;
          kernels::rank_k_update(tiled.data(), ldg, rows, cols, d, x);

          for (std::size_t i = 0; i < oracle.size(); ++i)
            ASSERT_EQ(bits(oracle[i]), bits(tiled[i]))
                << kernels::backend_name(backend) << " rows=" << rows
                << " cols=" << cols << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

// [−710, 0] on a 2^-8 grid plus 20,000 uniform draws, so the
// cross-backend check also sees arguments below the −708 cutoff.
std::vector<double> exp_arguments(Rng& rng) {
  std::vector<double> xs;
  for (double x = 0.0; x >= -710.0; x -= 0x1p-8) xs.push_back(x);
  for (int i = 0; i < 20000; ++i) xs.push_back(-710.0 * rng.uniform());
  return xs;
}

TEST(KernelBackends, ExpNonpositiveBitIdenticalAcrossBackends) {
  BackendRestorer restore;
  Rng rng(2718);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0, -0.0, -708.0, -709.0,
                             -std::numeric_limits<double>::infinity(), nan};
  // The specials lead (whole 16-element chunks in the scalar backend) and
  // trail (its element-by-element tail).
  std::vector<double> xs(std::begin(specials), std::end(specials));
  for (double x : exp_arguments(rng)) xs.push_back(x);
  xs.insert(xs.end(), std::begin(specials), std::end(specials));

  ASSERT_TRUE(kernels::set_backend(kernels::Backend::kScalar));
  std::vector<double> ref = xs;
  kernels::exp_nonpositive(ref);
  for (std::size_t at : {std::size_t{0}, xs.size() - std::size(specials)}) {
    EXPECT_EQ(bits(ref[at]), bits(1.0)) << "exp(0) at " << at;
    EXPECT_EQ(bits(ref[at + 1]), bits(1.0)) << "exp(-0) at " << at;
    EXPECT_GT(ref[at + 2], 0.0) << "exp(-708) is normal, not flushed";
    EXPECT_EQ(bits(ref[at + 3]), bits(0.0)) << "exp(-709) is +0 at " << at;
    EXPECT_EQ(bits(ref[at + 4]), bits(0.0)) << "exp(-inf) is +0 at " << at;
    EXPECT_TRUE(std::isnan(ref[at + 5])) << "NaN propagates at " << at;
  }

  for (kernels::Backend backend : available_simd_backends()) {
    ASSERT_TRUE(kernels::set_backend(backend));
    // Every start offset mod 4 shifts which elements the vector body and
    // the scalar tail see.
    for (std::size_t offset = 0; offset < 4; ++offset) {
      std::vector<double> simd = xs;
      kernels::exp_nonpositive(std::span<double>(simd).subspan(offset));
      for (std::size_t i = offset; i < xs.size(); ++i) {
        if (std::isnan(ref[i])) {
          ASSERT_TRUE(std::isnan(simd[i])) << "x=" << xs[i];
          continue;
        }
        ASSERT_EQ(bits(ref[i]), bits(simd[i]))
            << kernels::backend_name(backend) << " x=" << xs[i]
            << " offset=" << offset;
      }
    }
  }
}

TEST(KernelBackends, ExpNonpositiveWithinOneUlpOfStdExp) {
  BackendRestorer restore;
  Rng rng(1828);
  std::vector<double> xs;
  for (double x : exp_arguments(rng))
    if (x >= -708.0) xs.push_back(x);
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  for (kernels::Backend b : available_simd_backends()) backends.push_back(b);
  for (kernels::Backend backend : backends) {
    ASSERT_TRUE(kernels::set_backend(backend));
    std::vector<double> ys = xs;
    kernels::exp_nonpositive(ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      // Both results are positive finite doubles, so their bit patterns
      // order like the values and differ by the ULP distance.
      const auto ulps = static_cast<std::int64_t>(bits(ys[i])) -
                        static_cast<std::int64_t>(bits(std::exp(xs[i])));
      ASSERT_LE(std::abs(ulps), 1)
          << kernels::backend_name(backend) << " x=" << xs[i];
    }
  }
}

TEST(KernelBackends, NamesParseAndAvailabilityAgree) {
  BackendRestorer restore;
  // scalar is always present; names round-trip through the parser.
  EXPECT_TRUE(kernels::set_backend(kernels::Backend::kScalar));
  for (kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    const auto parsed = kernels::parse_backend(kernels::backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  // set_backend succeeds for AVX2 exactly when it is compiled in and the
  // host can execute it.
  EXPECT_EQ(kernels::set_backend(kernels::Backend::kAvx2),
            kernels::detail::avx2_table() != nullptr &&
                util::cpu_supports_avx2());
  EXPECT_FALSE(kernels::parse_backend("sse2").has_value());
  EXPECT_FALSE(kernels::parse_backend("").has_value());
  EXPECT_FALSE(kernels::parse_backend("AVX2").has_value());
  // The NEON backend was removed; its name takes the unknown-name path.
  EXPECT_FALSE(kernels::parse_backend("neon").has_value());
}

}  // namespace
}  // namespace hgc
