// QrWorkspace: column-pivoted Householder QR and least squares (see
// workspace.hpp).
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "linalg/kernels.hpp"
#include "linalg/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hgc {
namespace {
// A column whose remaining norm falls below kRankTolerance · max(1, largest
// column norm) is numerically zero and does not count toward the rank.
constexpr double kRankTolerance = 1e-10;
}  // namespace

void QrWorkspace::factor(const Matrix& a) {
  qr_.reshape(a.rows(), a.cols());
  std::copy(a.data().begin(), a.data().end(), qr_.data().begin());
  factor_packed();
}

void QrWorkspace::factor_transposed(const SparseRowMatrix& b,
                                    std::span<const std::size_t> rows) {
  // Pack (B_R)ᵀ column by column: zero-fill, then scatter row i's nonzeros
  // down column i. Absent entries are +0.0, exactly what a gather from the
  // dense B would read, so the packed bytes match it.
  qr_.reshape(b.cols(), rows.size());
  std::fill(qr_.data().begin(), qr_.data().end(), 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    HGC_REQUIRE(rows[i] < b.rows(), "row selection out of range");
    const auto cols = b.row_cols(rows[i]);
    const auto values = b.row_values(rows[i]);
    for (std::size_t j = 0; j < cols.size(); ++j)
      qr_(cols[j], i) = values[j];
  }
  factor_packed();
}

// Householder QR with greedy column pivoting.
void QrWorkspace::factor_packed() {
  HGC_TRACE_SCOPE("qr_factor", "linalg",
                  static_cast<std::int64_t>(qr_.rows()));
  if (obs::metrics_enabled()) {
    static const obs::Counter factors =
        obs::Registry::global().counter("linalg.qr_factors");
    factors.add();
  }
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  HGC_REQUIRE(m > 0 && n > 0, "QR of an empty matrix");
  const std::size_t steps = std::min(m, n);
  beta_.assign(steps, 0.0);
  perm_.resize(n);
  for (std::size_t j = 0; j < n; ++j) perm_[j] = j;

  // Squared norms of the trailing part of each column, downdated per step.
  col_norms_.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = qr_.row(i);
    for (std::size_t j = 0; j < n; ++j) col_norms_[j] += row[j] * row[j];
  }
  const double scale_ref =
      std::sqrt(*std::max_element(col_norms_.begin(), col_norms_.end()));
  const double threshold = kRankTolerance * std::max(1.0, scale_ref);

  update_.resize(n);
  for (std::size_t step = 0; step < steps; ++step) {
    // Greedy pivot: column with the largest remaining norm.
    std::size_t pivot = step;
    for (std::size_t j = step + 1; j < n; ++j)
      if (col_norms_[j] > col_norms_[pivot]) pivot = j;
    if (pivot != step) {
      for (std::size_t i = 0; i < m; ++i)
        std::swap(qr_(i, pivot), qr_(i, step));
      std::swap(col_norms_[pivot], col_norms_[step]);
      std::swap(perm_[pivot], perm_[step]);
    }

    // Householder reflector for rows step..m-1 of column step.
    double norm_x = 0.0;
    for (std::size_t i = step; i < m; ++i)
      norm_x += qr_(i, step) * qr_(i, step);
    norm_x = std::sqrt(norm_x);
    if (norm_x < threshold) {
      beta_[step] = 0.0;  // column (and all that follow) numerically zero
      continue;
    }
    const double alpha = qr_(step, step) >= 0.0 ? -norm_x : norm_x;
    const double v0 = qr_(step, step) - alpha;
    // v = x - alpha*e1, normalized so v[0] = 1; stored below the diagonal.
    for (std::size_t i = step + 1; i < m; ++i) qr_(i, step) /= v0;
    beta_[step] = -v0 / alpha;
    qr_(step, step) = alpha;

    // Apply (I - beta v vᵀ) to the trailing columns, restructured row-major
    // over the kernels: w = (trailing A)ᵀ·v accumulates per output element
    // in the same ascending-row order the old column loop used, then each
    // row takes one axpy. Same arithmetic, cache-friendly traversal.
    const std::size_t trail = n - step - 1;
    if (trail == 0) {
      col_norms_[step] = 0.0;
      continue;
    }
    const std::span<double> w(update_.data(), trail);
    const auto top = qr_.row(step).subspan(step + 1);
    std::copy(top.begin(), top.end(), w.begin());
    for (std::size_t i = step + 1; i < m; ++i)
      kernels::axpy(qr_(i, step), qr_.row(i).subspan(step + 1), w);
    kernels::scal(beta_[step], w);
    kernels::axpy(-1.0, w, qr_.row(step).subspan(step + 1));
    for (std::size_t i = step + 1; i < m; ++i)
      kernels::axpy(-qr_(i, step), w, qr_.row(i).subspan(step + 1));
    for (std::size_t j = step + 1; j < n; ++j) {
      col_norms_[j] -= qr_(step, j) * qr_(step, j);
      col_norms_[j] = std::max(col_norms_[j], 0.0);
    }
    col_norms_[step] = 0.0;
  }

  // Numerical rank: diagonal entries of R above the threshold.
  rank_ = 0;
  for (std::size_t i = 0; i < steps; ++i)
    if (std::abs(qr_(i, i)) > threshold) ++rank_;
}

double QrWorkspace::solve_into(std::span<const double> b, Vector& x) {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  HGC_REQUIRE(b.size() == m, "rhs length mismatch");
  y_.assign(b.begin(), b.end());

  // y ← Qᵀy (reflectors stored below the diagonal).
  for (std::size_t step = 0; step < beta_.size(); ++step) {
    if (beta_[step] == 0.0) continue;
    double w = y_[step];
    for (std::size_t i = step + 1; i < m; ++i) w += qr_(i, step) * y_[i];
    w *= beta_[step];
    y_[step] -= w;
    for (std::size_t i = step + 1; i < m; ++i) y_[i] -= w * qr_(i, step);
  }

  // Back substitution on the leading rank×rank block of R, in place over
  // y's prefix (y[j] for j > ii already holds z_j when row ii is reduced).
  for (std::size_t ii = rank_; ii-- > 0;) {
    const double acc =
        y_[ii] - kernels::dot({qr_.row(ii).data() + ii + 1, rank_ - ii - 1},
                              {y_.data() + ii + 1, rank_ - ii - 1});
    y_[ii] = acc / qr_(ii, ii);
  }

  // Basic solution: pivot columns get z, free columns get zero.
  x.assign(n, 0.0);
  for (std::size_t j = 0; j < rank_; ++j) x[perm_[j]] = y_[j];

  // Residual: rows of Qᵀb not reachable by the rank columns, plus any
  // neglected coupling R[0:r, r:] (zero here because free vars are zero).
  double res2 = 0.0;
  for (std::size_t i = rank_; i < m; ++i) res2 += y_[i] * y_[i];
  return std::sqrt(res2);
}

}  // namespace hgc
