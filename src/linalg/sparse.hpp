// CSR sparse row matrix — the sparse half of the determinism contract.
//
// The paper's coding matrices are ≤(s+1)-sparse per row by construction
// (every worker holds at most s+1 partitions), yet at 10k+ workers a dense
// m×k Matrix is a multi-gigabyte wall: the scheme constructors, the
// encode/decode paths and the robustness sweeps all walk O(m·k) storage for
// O(m·s) information. SparseRowMatrix stores exactly the nonzero structure
// (CSR: row pointers, column indices, values), and the kernels below give
// the coding layer sparse dot/gemv/gemv_t/axpy analogues with a FIXED,
// documented accumulation order so that going sparse never changes a byte
// of output.
//
// Determinism contract (mirrors linalg/kernels.hpp for the dense side):
//   * Within a row, nonzeros are stored in strictly ascending column order
//     (the builder sorts) — every kernel walks them in that order.
//   * row_dot() accumulates the ≤(s+1) products of one row left to right in
//     a single scalar chain. Rows here are short by construction, so no
//     lane tree: the ascending-column scalar order IS the contract.
//   * gemv() reduces each output element with row_dot()'s order, rows
//     ascending.
//   * gemv_t() has no reductions: y is zeroed, then row r contributes
//     x[r]·row(r) via one in-order pass, r ascending — each y[c] sums in
//     row order, exactly the dense kernels::gemv_t order with the
//     structural zeros skipped. Skipping a structural zero drops a
//     `y[c] += x[r]·0.0` term, which is bit-identical for every finite
//     y[c] except the pathological -0.0 + 0.0 = +0.0 case; coding-layer
//     accumulators never hold -0.0 (they start at +0.0 and schemes store
//     no signed zeros — the support validation rejects stored zeros).
//   * The decode-solve packing (QrWorkspace::factor_transposed) zero-fills
//     and scatters, producing a byte-identical packed buffer to a gather
//     from the dense B — so the QR results are unchanged bytes.
// Changing any loop here changes numeric results globally; re-baseline the
// figure outputs if you do.
//
// Like the rest of src/linalg/, this layer is allocation-free on the hot
// path: kernels never allocate, and the builder/conversions allocate only
// at construction time.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace hgc {

/// Immutable CSR matrix of doubles. Row r's nonzeros live at positions
/// [row_ptr[r], row_ptr[r+1]) of col_idx/values, columns strictly
/// ascending. Construct via SparseRowBuilder.
class SparseRowMatrix {
 public:
  SparseRowMatrix() = default;

  std::size_t rows() const { return row_ptr_.size() - 1; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Number of nonzeros in row r (the coding layer's per-worker load).
  std::size_t row_nnz(std::size_t r) const {
    HGC_ASSERT(r < rows(), "sparse row index out of range");
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  /// Column indices of row r, strictly ascending.
  std::span<const std::size_t> row_cols(std::size_t r) const {
    HGC_ASSERT(r < rows(), "sparse row index out of range");
    return {col_idx_.data() + row_ptr_[r], row_nnz(r)};
  }

  /// Values of row r, parallel to row_cols(r).
  std::span<const double> row_values(std::size_t r) const {
    HGC_ASSERT(r < rows(), "sparse row index out of range");
    return {values_.data() + row_ptr_[r], row_nnz(r)};
  }

 private:
  friend class SparseRowBuilder;

  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Accumulates (row, col, value) triplets in any order, then build() sorts
/// each row by column and packs the CSR arrays. Exists because the scheme
/// constructors write column-wise (Alg. 1 solves one partition — one B
/// column — at a time). Entries with value exactly 0.0 are dropped
/// (support semantics); duplicate (row, col) pairs are a caller bug and
/// throw at build().
class SparseRowBuilder {
 public:
  SparseRowBuilder(std::size_t rows, std::size_t cols);

  /// Record entry (r, c) = v. O(1) amortized.
  void set(std::size_t r, std::size_t c, double v);

  /// Pack into an immutable SparseRowMatrix. The builder is left empty.
  SparseRowMatrix build();

 private:
  std::size_t cols_ = 0;
  // Per-row (col, value) triplet lists, sorted at build() time.
  std::vector<std::vector<std::pair<std::size_t, double>>> entries_;
};

namespace sparse {

/// Σ over row r's nonzeros of value·x[col], ascending column order, one
/// scalar accumulation chain (the documented sparse order).
double row_dot(const SparseRowMatrix& a, std::size_t r,
               std::span<const double> x) noexcept;

/// y ← A·x: y[r] = row_dot(a, r, x), rows ascending. y must have
/// a.rows() elements.
void gemv(const SparseRowMatrix& a, std::span<const double> x,
          std::span<double> y) noexcept;

/// y ← Aᵀ·x, accumulated row-wise: y is zeroed, then row r contributes
/// x[r]·row(r) in ascending column order, r ascending — the dense
/// kernels::gemv_t order with structural zeros skipped. y must have
/// a.cols() elements.
void gemv_t(const SparseRowMatrix& a, std::span<const double> x,
            std::span<double> y) noexcept;

/// y ← y + alpha·row(r): one in-order pass over row r's nonzeros; each
/// touched y[c] takes a single mul + add (the sparse axpy).
void add_scaled_row(const SparseRowMatrix& a, std::size_t r, double alpha,
                    std::span<double> y) noexcept;

}  // namespace sparse
}  // namespace hgc
