#include "linalg/nullspace.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"

namespace hgc {
namespace {
// Pivot candidates at or below this magnitude are treated as zero.
constexpr double kPivotTolerance = 1e-10;
}  // namespace

void reduce_to_rref(Matrix& a, std::vector<std::size_t>& pivots) {
  pivots.clear();
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < cols && pivot_row < rows; ++col) {
    // Partial pivot within this column.
    std::size_t best_row = pivot_row;
    double best = std::abs(a(pivot_row, col));
    for (std::size_t r = pivot_row + 1; r < rows; ++r) {
      const double cand = std::abs(a(r, col));
      if (cand > best) {
        best = cand;
        best_row = r;
      }
    }
    if (best <= kPivotTolerance) continue;  // free column
    if (best_row != pivot_row) {
      const auto from = a.row(best_row);
      const auto to = a.row(pivot_row);
      std::swap_ranges(from.begin(), from.end(), to.begin());
    }

    const double inv = 1.0 / a(pivot_row, col);
    kernels::scal(inv, a.row(pivot_row));
    a(pivot_row, col) = 1.0;  // kill roundoff on the pivot itself

    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pivot_row) continue;
      const double factor = a(r, col);
      if (factor == 0.0) continue;
      kernels::axpy(-factor, a.row(pivot_row), a.row(r));
      a(r, col) = 0.0;
    }
    pivots.push_back(col);
    ++pivot_row;
  }
}

void null_space_basis_into(const Matrix& a, Matrix& rref,
                           std::vector<std::size_t>& pivots, Matrix& basis) {
  HGC_REQUIRE(!a.empty(), "null space of an empty matrix");
  rref.reshape(a.rows(), a.cols());
  std::copy(a.data().begin(), a.data().end(), rref.data().begin());
  reduce_to_rref(rref, pivots);
  const std::size_t cols = a.cols();

  basis.reshape(cols, cols - pivots.size());
  std::fill(basis.data().begin(), basis.data().end(), 0.0);
  // Walk the columns once: pivot columns are skipped, each free column
  // becomes one basis vector with its pivot variables read off the RREF.
  std::size_t next_pivot = 0;
  std::size_t fi = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    if (next_pivot < pivots.size() && pivots[next_pivot] == c) {
      ++next_pivot;
      continue;
    }
    basis(c, fi) = 1.0;
    for (std::size_t pi = 0; pi < pivots.size(); ++pi)
      basis(pivots[pi], fi) = -rref(pi, c);
    ++fi;
  }
}

}  // namespace hgc
