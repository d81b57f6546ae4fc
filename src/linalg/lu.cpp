// LuWorkspace: blocked LU with partial pivoting (see workspace.hpp).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "linalg/kernels.hpp"
#include "linalg/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hgc {
namespace {
constexpr double kPivotTolerance = 1e-12;

// Panel width for the blocked factorization. 32 trailing-row factors plus a
// 32-row pivot panel fit comfortably in L1/L2 at the sweep's sizes, and the
// trailing matrix is streamed n/32 times instead of n times.
constexpr std::size_t kLuPanel = 32;
}  // namespace

bool LuWorkspace::factor(const Matrix& a) {
  HGC_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  lu_.reshape(a.rows(), a.cols());
  std::copy(a.data().begin(), a.data().end(), lu_.data().begin());
  return factor_packed();
}

bool LuWorkspace::factor_cols(const Matrix& a,
                              std::span<const std::size_t> cols) {
  HGC_REQUIRE(a.rows() == cols.size(),
              "LU requires a square matrix (rows vs selected cols)");
  lu_.reshape(a.rows(), cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    HGC_REQUIRE(cols[i] < a.cols(), "column selection out of range");
    for (std::size_t r = 0; r < a.rows(); ++r) lu_(r, i) = a(r, cols[i]);
  }
  return factor_packed();
}

// Right-looking blocked LU with partial pivoting.
//
// Columns are processed in panels of kLuPanel. Within a panel, each column
// is pivoted and factored eagerly, but its axpy update touches only the
// remaining PANEL columns; the update of everything right of the panel is
// deferred. After the panel, one row-ascending pass applies all deferred
// contributions: row r receives those of panel columns j < min(r, k1) in
// ascending j, fused four columns per sweep so the trailing row is read
// and written once per FOUR updates instead of once per update — that
// fusion, not the panel split alone, is where the measured win comes from.
// Ascending r makes the pass correct — a panel row j < k1 is fully updated
// (it is a finished U row) before any row r > j reads its trailing part —
// so the single loop covers both the U12 triangular solve and the A22
// rank-kLuPanel update.
//
// Determinism: every element (r, c) still receives its updates as the same
// ascending-j sequence an unblocked same-order elimination would apply —
// axpy4 chains its four adds in argument order per element, bit-identical
// to four sequential axpys in every backend — and pivot columns are always
// fully updated before they are searched, so pivot choices are blocking-
// and backend-independent.
//
// Near-singular columns (pivot below tolerance) are skipped exactly as
// before: no swap, no factors, raw values stay below the diagonal, and the
// deferred pass drops the column via `skip` (compaction preserves the
// ascending-j order of the survivors).
bool LuWorkspace::factor_packed() {
  // Disabled observability cost here is one relaxed load + branch per
  // handle: this sits under every Alg. 1 partition solve and must stay
  // allocation-free and branch-predictable (BM_KernelLuSolveWorkspace pins
  // it).
  HGC_TRACE_SCOPE("lu_factor", "linalg",
                  static_cast<std::int64_t>(lu_.rows()));
  if (obs::metrics_enabled()) {
    static const obs::Counter factors =
        obs::Registry::global().counter("linalg.lu_factors");
    factors.add();
  }
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  bool singular = false;

  for (std::size_t k0 = 0; k0 < n; k0 += kLuPanel) {
    const std::size_t k1 = std::min(k0 + kLuPanel, n);
    std::array<bool, kLuPanel> skip{};

    // Factor the panel: pivot + eliminate, updating panel columns only.
    for (std::size_t col = k0; col < k1; ++col) {
      // Partial pivoting: bring the largest remaining |entry| to the
      // diagonal. Column col is fully up to date here (previous panels'
      // deferred passes plus this panel's eager updates).
      std::size_t pivot = col;
      double best = std::abs(lu_(col, col));
      for (std::size_t r = col + 1; r < n; ++r) {
        const double cand = std::abs(lu_(r, col));
        if (cand > best) {
          best = cand;
          pivot = r;
        }
      }
      if (best < kPivotTolerance) {
        singular = true;
        skip[col - k0] = true;
        continue;
      }
      if (pivot != col) {
        for (std::size_t c = 0; c < n; ++c)
          std::swap(lu_(pivot, c), lu_(col, c));
        std::swap(perm_[pivot], perm_[col]);
      }
      const double inv_diag = 1.0 / lu_(col, col);
      const auto pivot_tail = lu_.row(col).subspan(col + 1, k1 - col - 1);
      for (std::size_t r = col + 1; r < n; ++r) {
        const double factor = lu_(r, col) * inv_diag;
        lu_(r, col) = factor;
        kernels::axpy(-factor, pivot_tail,
                      lu_.row(r).subspan(col + 1, k1 - col - 1));
      }
    }

    // Deferred trailing pass (fused U12 solve + A22 update; see above).
    if (k1 == n) continue;
    const std::size_t len = n - k1;
    for (std::size_t r = k0 + 1; r < n; ++r) {
      const std::size_t jmax = std::min(r, k1);
      // Compact the non-skipped contributions, then apply them four per
      // sweep through kernels::axpy4 (bit-identical to four sequential
      // axpys by its contract) — the fusion batches memory traffic, not
      // arithmetic.
      const double* u[kLuPanel];
      double f[kLuPanel];
      std::size_t cnt = 0;
      for (std::size_t j = k0; j < jmax; ++j) {
        if (skip[j - k0]) continue;
        f[cnt] = -lu_(r, j);
        u[cnt] = lu_.row(j).data() + k1;
        ++cnt;
      }
      const std::span<double> target(lu_.row(r).data() + k1, len);
      std::size_t g = 0;
      for (; g + 4 <= cnt; g += 4) {
        const double alpha[4] = {f[g], f[g + 1], f[g + 2], f[g + 3]};
        const double* const x[4] = {u[g], u[g + 1], u[g + 2], u[g + 3]};
        kernels::axpy4(alpha, x, target);
      }
      for (; g < cnt; ++g)
        kernels::axpy(f[g], std::span<const double>(u[g], len), target);
    }
  }
  singular_ = singular;
  return !singular;
}

void LuWorkspace::solve_into(std::span<const double> b, Vector& x) const {
  HGC_REQUIRE(b.size() == lu_.rows(), "rhs length mismatch");
  HGC_ASSERT(!singular_, "solve_into() on a singular matrix");
  const std::size_t n = lu_.rows();
  x.resize(n);
  const std::span<const double> xs(x);
  // Forward substitution with the permuted rhs (L has unit diagonal).
  for (std::size_t i = 0; i < n; ++i)
    x[i] = b[perm_[i]] - kernels::dot(lu_.row(i).first(i), xs.first(i));
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    const double acc =
        x[ii] - kernels::dot(lu_.row(ii).subspan(ii + 1), xs.subspan(ii + 1));
    x[ii] = acc / lu_(ii, ii);
  }
}

}  // namespace hgc
