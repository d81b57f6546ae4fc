// Dense helpers the tests build references with: transposes, row/column
// gathers, products through the same kernels the library uses, and
// dense <-> CSR conversion. The library itself never materializes these.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace hgc::ref {

/// The dense equivalent of b (absent entries become +0.0).
inline Matrix to_dense(const SparseRowMatrix& b) {
  Matrix dense(b.rows(), b.cols());
  for (std::size_t r = 0; r < b.rows(); ++r) {
    const auto cols = b.row_cols(r);
    const auto values = b.row_values(r);
    for (std::size_t i = 0; i < cols.size(); ++i) dense(r, cols[i]) = values[i];
  }
  return dense;
}

/// Entry (r, c) of b; 0.0 when absent from the structure. Binary search
/// over the row.
inline double at(const SparseRowMatrix& b, std::size_t r, std::size_t c) {
  HGC_REQUIRE(r < b.rows() && c < b.cols(), "sparse index out of range");
  const auto cols = b.row_cols(r);
  const auto it = std::lower_bound(cols.begin(), cols.end(), c);
  if (it == cols.end() || *it != c) return 0.0;
  return b.row_values(r)[static_cast<std::size_t>(it - cols.begin())];
}

inline Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

inline Matrix transposed(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) out(c, r) = a(r, c);
  return out;
}

/// Submatrix keeping the given rows (in the given order; repeats allowed).
inline Matrix select_rows(const Matrix& a,
                          std::span<const std::size_t> indices) {
  Matrix out(indices.size(), a.cols());
  for (std::size_t i = 0; i < indices.size(); ++i)
    out.set_row(i, a.row(indices[i]));
  return out;
}

/// Submatrix keeping the given columns (in the given order).
inline Matrix select_cols(const Matrix& a,
                          std::span<const std::size_t> indices) {
  Matrix out(a.rows(), indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i)
    for (std::size_t r = 0; r < a.rows(); ++r) out(r, i) = a(r, indices[i]);
  return out;
}

/// a·x through kernels::gemv.
inline Vector apply(const Matrix& a, std::span<const double> x) {
  Vector out(a.rows());
  kernels::gemv(a.data().data(), a.cols(), a.rows(), a.cols(), x, out);
  return out;
}

/// xᵀ·a through kernels::gemv_t (length-rows x, returns length-cols).
inline Vector apply_transpose(const Matrix& a, std::span<const double> x) {
  Vector out(a.cols());
  kernels::gemv_t(a.data().data(), a.cols(), a.rows(), a.cols(), x, out);
  return out;
}

/// xᵀ·B for a CSR B, through its dense copy.
inline Vector apply_transpose(const SparseRowMatrix& b,
                              std::span<const double> x) {
  return apply_transpose(to_dense(b), x);
}

/// Max |a_ij − b_ij|; the matrices must be the same shape.
inline double max_abs_diff(const Matrix& a, const Matrix& b) {
  HGC_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(), "shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  return worst;
}

inline double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

/// CSR copy of a dense matrix, keeping the entries that compare != 0.0.
inline SparseRowMatrix from_dense(const Matrix& dense) {
  SparseRowBuilder builder(dense.rows(), dense.cols());
  for (std::size_t r = 0; r < dense.rows(); ++r)
    for (std::size_t c = 0; c < dense.cols(); ++c)
      builder.set(r, c, dense(r, c));
  return builder.build();
}

}  // namespace hgc::ref
