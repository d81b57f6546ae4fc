// Unit and property tests for src/linalg: Matrix, the LU and QR workspaces,
// null space and RREF.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.hpp"
#include "linalg/nullspace.hpp"
#include "linalg/workspace.hpp"
#include "linalg_reference.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  return m;
}

/// Factor a (must be nonsingular) in a fresh LuWorkspace and solve A·x = b.
Vector solve_lu(const Matrix& a, const Vector& b) {
  LuWorkspace ws;
  EXPECT_TRUE(ws.factor(a));
  Vector x;
  ws.solve_into(b, x);
  return x;
}

struct QrSolve {
  Vector x;
  double residual = 0.0;
  std::size_t rank = 0;
};

/// Least squares min ‖A·x − b‖₂ through a fresh QrWorkspace.
QrSolve solve_qr(const Matrix& a, const Vector& b) {
  QrWorkspace ws;
  ws.factor(a);
  QrSolve out;
  out.residual = ws.solve_into(b, out.x);
  out.rank = ws.rank();
  return out;
}

std::size_t qr_rank(const Matrix& a) {
  QrWorkspace ws;
  ws.factor(a);
  return ws.rank();
}

Matrix null_space(const Matrix& a) {
  Matrix rref, basis;
  std::vector<std::size_t> pivots;
  null_space_basis_into(a, rref, pivots, basis);
  return basis;
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  m(1, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Ones) {
  const Matrix ones = Matrix::ones(2, 3);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(ones(r, c), 1.0);
}

TEST(Matrix, MultiplyMatchesHandComputed) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix ab = a * b;
  EXPECT_DOUBLE_EQ(ab(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(ab(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(ab(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(ab(1, 1), 50.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  const Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, ArithmeticOperators) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{4, 3}, {2, 1}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(1, 1), 3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(VectorOps, DotAxpy) {
  const Vector a{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
  Vector y{1.0, 1.0, 1.0};
  axpy(2.0, a, y);
  EXPECT_EQ(y, (Vector{3.0, 5.0, 5.0}));
}

TEST(Lu, SolvesKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector b{3.0, 5.0};
  const Vector x = solve_lu(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, DetectsSingular) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  LuWorkspace ws;
  EXPECT_FALSE(ws.factor(a));
  Vector x;
  EXPECT_THROW(ws.solve_into(Vector{1.0, 1.0}, x), InternalError);
}

TEST(Lu, RejectsNonSquare) {
  LuWorkspace ws;
  EXPECT_THROW(ws.factor(Matrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(ws.factor_cols(Matrix(2, 3), std::vector<std::size_t>{0}),
               std::invalid_argument);
}

TEST(Lu, RandomSystemsResidual) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 8);
    const Matrix a = random_matrix(n, n, rng);
    Vector b(n);
    for (double& v : b) v = rng.normal();
    const Vector x = solve_lu(a, b);
    const Vector ax = ref::apply(a, x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
  }
}

TEST(Lu, PermutationHeavySystem) {
  // Zero pivots on the diagonal force row exchanges.
  const Matrix a{{0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}, {3.0, 0.0, 0.0}};
  const Vector b{1.0, 2.0, 3.0};
  const Vector x = solve_lu(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[2], 1.0, 1e-12);
}

TEST(Qr, LeastSquaresOverdetermined) {
  // Fit y = 2x + 1 through exact points: residual 0, exact coefficients.
  Matrix a(4, 2);
  Vector b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const double x = static_cast<double>(i);
    a(i, 0) = x;
    a(i, 1) = 1.0;
    b[i] = 2.0 * x + 1.0;
  }
  const QrSolve ls = solve_qr(a, b);
  EXPECT_EQ(ls.rank, 2u);
  EXPECT_NEAR(ls.x[0], 2.0, 1e-10);
  EXPECT_NEAR(ls.x[1], 1.0, 1e-10);
  EXPECT_NEAR(ls.residual, 0.0, 1e-10);
}

TEST(Qr, LeastSquaresInconsistentHasResidual) {
  const Matrix a{{1.0}, {1.0}};
  const Vector b{0.0, 2.0};
  const QrSolve ls = solve_qr(a, b);
  EXPECT_NEAR(ls.x[0], 1.0, 1e-10);
  EXPECT_NEAR(ls.residual, std::sqrt(2.0), 1e-10);
}

TEST(Qr, RankDetection) {
  Matrix a(4, 3);
  // Column 2 = column 0 + column 1 -> rank 2.
  Rng rng(3);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = rng.normal();
    a(i, 1) = rng.normal();
    a(i, 2) = a(i, 0) + a(i, 1);
  }
  EXPECT_EQ(qr_rank(a), 2u);
  EXPECT_EQ(qr_rank(ref::identity(5)), 5u);
  EXPECT_EQ(qr_rank(Matrix(3, 3)), 0u);
}

TEST(Qr, UnderdeterminedBasicSolution) {
  // One equation, two unknowns: x + y = 2. Basic solution sets the free
  // variable to zero and must satisfy the equation.
  const Matrix a{{1.0, 1.0}};
  const Vector b{2.0};
  const QrSolve ls = solve_qr(a, b);
  EXPECT_EQ(ls.rank, 1u);
  EXPECT_NEAR(ls.x[0] + ls.x[1], 2.0, 1e-10);
  EXPECT_NEAR(ls.residual, 0.0, 1e-10);
}

TEST(Qr, RandomConsistentSystems) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 3 + static_cast<std::size_t>(trial % 5);
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 3);
    const Matrix a = random_matrix(m, n, rng);
    Vector x_true(n);
    for (double& v : x_true) v = rng.normal();
    const Vector b = ref::apply(a, x_true);
    const QrSolve ls = solve_qr(a, b);
    EXPECT_NEAR(ls.residual, 0.0, 1e-8) << "trial " << trial;
  }
}

TEST(NullSpace, KnownKernel) {
  // a = [1 1 0; 0 0 1]: kernel spanned by (1, -1, 0).
  const Matrix a{{1.0, 1.0, 0.0}, {0.0, 0.0, 1.0}};
  const Matrix basis = null_space(a);
  ASSERT_EQ(basis.cols(), 1u);
  const Vector v = basis.col(0);
  const Vector av = ref::apply(a, v);
  EXPECT_NEAR(ref::norm2(av), 0.0, 1e-10);
  EXPECT_GT(ref::norm2(v), 0.0);
}

TEST(NullSpace, FullRankHasTrivialKernel) {
  const Matrix basis = null_space(ref::identity(4));
  EXPECT_EQ(basis.rows(), 4u);
  EXPECT_EQ(basis.cols(), 0u);
}

TEST(NullSpace, DimensionMatchesRankNullity) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t rows = 2 + static_cast<std::size_t>(trial % 4);
    const std::size_t cols = rows + 1 + static_cast<std::size_t>(trial % 3);
    const Matrix a = random_matrix(rows, cols, rng);  // full row rank w.p. 1
    const Matrix basis = null_space(a);
    EXPECT_EQ(basis.cols(), cols - rows);
    // Every basis vector annihilates a.
    for (std::size_t c = 0; c < basis.cols(); ++c)
      EXPECT_NEAR(ref::norm2(ref::apply(a, basis.col(c))), 0.0, 1e-8);
  }
}

TEST(NullSpace, RrefPivots) {
  Matrix a{{0.0, 2.0, 4.0}, {1.0, 1.0, 1.0}};
  std::vector<std::size_t> pivots{7};  // stale content is cleared
  reduce_to_rref(a, pivots);
  EXPECT_EQ(pivots, (std::vector<std::size_t>{0, 1}));
  // RREF: leading ones with zeros above/below.
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

}  // namespace
}  // namespace hgc
