#include "linalg/sparse.hpp"

#include <algorithm>

namespace hgc {

SparseRowBuilder::SparseRowBuilder(std::size_t rows, std::size_t cols)
    : cols_(cols), entries_(rows) {
  HGC_REQUIRE(cols > 0, "sparse builder needs at least one column");
}

void SparseRowBuilder::set(std::size_t r, std::size_t c, double v) {
  HGC_REQUIRE(r < entries_.size() && c < cols_,
              "sparse builder index out of range");
  if (v == 0.0) return;  // structural zero: support semantics
  entries_[r].emplace_back(c, v);
}

SparseRowMatrix SparseRowBuilder::build() {
  SparseRowMatrix out;
  out.cols_ = cols_;
  out.row_ptr_.assign(1, 0);
  out.row_ptr_.reserve(entries_.size() + 1);
  std::size_t nnz = 0;
  for (const auto& row : entries_) nnz += row.size();
  out.col_idx_.reserve(nnz);
  out.values_.reserve(nnz);
  for (auto& row : entries_) {
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 1; i < row.size(); ++i)
      HGC_REQUIRE(row[i].first != row[i - 1].first,
                  "duplicate sparse entry for one (row, col)");
    for (const auto& [col, value] : row) {
      out.col_idx_.push_back(col);
      out.values_.push_back(value);
    }
    out.row_ptr_.push_back(out.values_.size());
  }
  entries_.clear();
  return out;
}

namespace sparse {

double row_dot(const SparseRowMatrix& a, std::size_t r,
               std::span<const double> x) noexcept {
  const auto cols = a.row_cols(r);
  const auto values = a.row_values(r);
  // Ascending-column scalar chain: rows are ≤(s+1)-sparse by construction,
  // so this order (not a lane tree) is the documented contract.
  double sum = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i)
    sum += values[i] * x[cols[i]];
  return sum;
}

void gemv(const SparseRowMatrix& a, std::span<const double> x,
          std::span<double> y) noexcept {
  for (std::size_t r = 0; r < a.rows(); ++r) y[r] = row_dot(a, r, x);
}

void gemv_t(const SparseRowMatrix& a, std::span<const double> x,
            std::span<double> y) noexcept {
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) add_scaled_row(a, r, x[r], y);
}

void add_scaled_row(const SparseRowMatrix& a, std::size_t r, double alpha,
                    std::span<double> y) noexcept {
  const auto cols = a.row_cols(r);
  const auto values = a.row_values(r);
  for (std::size_t i = 0; i < cols.size(); ++i)
    y[cols[i]] += alpha * values[i];
}

}  // namespace sparse
}  // namespace hgc
