// AVX2 backend: the documented sixteen-lane summation order on 256-bit
// registers.
//
// Compiled with -mavx2 -mno-fma -ffp-contract=off (set per-file in
// CMakeLists): no FMA and no compiler contraction, because a fused
// multiply-add rounds once where the contract's mul+add rounds twice — the
// bit-identity CI diff against the scalar backend would catch it, so the
// flags make the invariant a build property instead of a test finding.
//
// Lane mapping (the reason the scalar order was chosen the way it was):
// accumulator ymm_s covers elements i+4s .. i+4s+3 of each 16-element
// block, so vector-lane j of ymm_s is scalar lane 4s+j. The lanewise
// combine (ymm_0+ymm_1)+(ymm_2+ymm_3) therefore computes
// u_j = (lane_j + lane_{j+4}) + (lane_{j+8} + lane_{j+12}) in vector-lane
// j, and the ordered horizontal reduce (u_0+u_1)+(u_2+u_3) finishes the
// documented tree exactly.
//
// Only this TU may contain vector intrinsics; the
// hgc_lint `intrinsics-outside-linalg` rule enforces that tree-wide.
#include "linalg/kernels_dispatch.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace hgc::kernels::detail {
namespace {

// Ordered horizontal reduce of u = [u0, u1, u2, u3]: (u0 + u1) + (u2 + u3).
inline double hreduce(__m256d u) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(u);
  const __m128d hi = _mm256_extractf128_pd(u, 1);
  const double u0 = _mm_cvtsd_f64(lo);
  const double u1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double u2 = _mm_cvtsd_f64(hi);
  const double u3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (u0 + u1) + (u2 + u3);
}

double dot_avx2(const double* pa, const double* pb, std::size_t n) noexcept {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    a0 = _mm256_add_pd(
        a0, _mm256_mul_pd(_mm256_loadu_pd(pa + i), _mm256_loadu_pd(pb + i)));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(pa + i + 4),
                                         _mm256_loadu_pd(pb + i + 4)));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(pa + i + 8),
                                         _mm256_loadu_pd(pb + i + 8)));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(pa + i + 12),
                                         _mm256_loadu_pd(pb + i + 12)));
  }
  double acc =
      hreduce(_mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3)));
  for (; i < n; ++i) acc += pa[i] * pb[i];
  return acc;
}

void axpy_avx2(double alpha, const double* px, double* py,
               std::size_t n) noexcept {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d y = _mm256_loadu_pd(py + i);
    const __m256d x = _mm256_loadu_pd(px + i);
    _mm256_storeu_pd(py + i, _mm256_add_pd(y, _mm256_mul_pd(av, x)));
  }
  for (; i < n; ++i) py[i] += alpha * px[i];
}

void axpy4_avx2(const double* alpha, const double* const* px, double* py,
                std::size_t n) noexcept {
  const __m256d a0 = _mm256_set1_pd(alpha[0]);
  const __m256d a1 = _mm256_set1_pd(alpha[1]);
  const __m256d a2 = _mm256_set1_pd(alpha[2]);
  const __m256d a3 = _mm256_set1_pd(alpha[3]);
  const double* x0 = px[0];
  const double* x1 = px[1];
  const double* x2 = px[2];
  const double* x3 = px[3];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_loadu_pd(py + i);
    v = _mm256_add_pd(v, _mm256_mul_pd(a0, _mm256_loadu_pd(x0 + i)));
    v = _mm256_add_pd(v, _mm256_mul_pd(a1, _mm256_loadu_pd(x1 + i)));
    v = _mm256_add_pd(v, _mm256_mul_pd(a2, _mm256_loadu_pd(x2 + i)));
    v = _mm256_add_pd(v, _mm256_mul_pd(a3, _mm256_loadu_pd(x3 + i)));
    _mm256_storeu_pd(py + i, v);
  }
  for (; i < n; ++i) {
    double v = py[i];
    v += alpha[0] * x0[i];
    v += alpha[1] * x1[i];
    v += alpha[2] * x2[i];
    v += alpha[3] * x3[i];
    py[i] = v;
  }
}

void scal_avx2(double alpha, double* px, std::size_t n) noexcept {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(px + i, _mm256_mul_pd(_mm256_loadu_pd(px + i), av));
  for (; i < n; ++i) px[i] *= alpha;
}

void gemv_avx2(const double* a, std::size_t lda, std::size_t rows,
               std::size_t cols, const double* x, double* y) noexcept {
  // Two rows per pass share the x loads; each row keeps its own four
  // accumulators, so each output element still reduces in dot()'s exact
  // order — the blocking buys throughput (eight adds in flight), not a
  // different tree.
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* r0 = a + r * lda;
    const double* r1 = r0 + lda;
    __m256d p0 = _mm256_setzero_pd(), p1 = _mm256_setzero_pd();
    __m256d p2 = _mm256_setzero_pd(), p3 = _mm256_setzero_pd();
    __m256d q0 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd();
    __m256d q2 = _mm256_setzero_pd(), q3 = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c + 16 <= cols; c += 16) {
      const __m256d x0 = _mm256_loadu_pd(x + c);
      const __m256d x1 = _mm256_loadu_pd(x + c + 4);
      const __m256d x2 = _mm256_loadu_pd(x + c + 8);
      const __m256d x3 = _mm256_loadu_pd(x + c + 12);
      p0 = _mm256_add_pd(p0, _mm256_mul_pd(_mm256_loadu_pd(r0 + c), x0));
      p1 = _mm256_add_pd(p1, _mm256_mul_pd(_mm256_loadu_pd(r0 + c + 4), x1));
      p2 = _mm256_add_pd(p2, _mm256_mul_pd(_mm256_loadu_pd(r0 + c + 8), x2));
      p3 = _mm256_add_pd(p3,
                         _mm256_mul_pd(_mm256_loadu_pd(r0 + c + 12), x3));
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(_mm256_loadu_pd(r1 + c), x0));
      q1 = _mm256_add_pd(q1, _mm256_mul_pd(_mm256_loadu_pd(r1 + c + 4), x1));
      q2 = _mm256_add_pd(q2, _mm256_mul_pd(_mm256_loadu_pd(r1 + c + 8), x2));
      q3 = _mm256_add_pd(q3,
                         _mm256_mul_pd(_mm256_loadu_pd(r1 + c + 12), x3));
    }
    double acc0 =
        hreduce(_mm256_add_pd(_mm256_add_pd(p0, p1), _mm256_add_pd(p2, p3)));
    double acc1 =
        hreduce(_mm256_add_pd(_mm256_add_pd(q0, q1), _mm256_add_pd(q2, q3)));
    for (std::size_t cc = c; cc < cols; ++cc) {
      acc0 += r0[cc] * x[cc];
      acc1 += r1[cc] * x[cc];
    }
    y[r] = acc0;
    y[r + 1] = acc1;
  }
  for (; r < rows; ++r) y[r] = dot_avx2(a + r * lda, x, cols);
}

void gemv_t_avx2(const double* a, std::size_t lda, std::size_t rows,
                 std::size_t cols, const double* x, double* y) noexcept {
  for (std::size_t c = 0; c < cols; ++c) y[c] = 0.0;
  for (std::size_t r = 0; r < rows; ++r)
    axpy_avx2(x[r], a + r * lda, y, cols);
}

// One R-row × 4V-column tile of G held in R·V registers across all n
// samples: per sample, V loads of x_s, R broadcasts of d_s and R·V mul + add
// — the same single mul + add per element, in ascending s, as the scalar
// spelling.
template <std::size_t R, std::size_t V>
inline void rank_k_tile(double* g, std::size_t ldg, std::size_t rows,
                        std::size_t r, std::size_t c, const double* d,
                        const double* const* x, std::size_t n) noexcept {
  // The unroll pragmas keep acc and xv in registers at -O2 as well; without
  // them GCC spills the arrays and the tile is slower than scalar code.
  __m256d acc[R][V];
#pragma GCC unroll 2
  for (std::size_t i = 0; i < R; ++i)
#pragma GCC unroll 4
    for (std::size_t j = 0; j < V; ++j)
      acc[i][j] = _mm256_loadu_pd(g + (r + i) * ldg + c + 4 * j);
  for (std::size_t s = 0; s < n; ++s) {
    const double* xs = x[s] + c;
    __m256d xv[V];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < V; ++j) xv[j] = _mm256_loadu_pd(xs + 4 * j);
#pragma GCC unroll 2
    for (std::size_t i = 0; i < R; ++i) {
      const __m256d dv = _mm256_set1_pd(d[s * rows + r + i]);
#pragma GCC unroll 4
      for (std::size_t j = 0; j < V; ++j)
        acc[i][j] = _mm256_add_pd(acc[i][j], _mm256_mul_pd(dv, xv[j]));
    }
  }
#pragma GCC unroll 2
  for (std::size_t i = 0; i < R; ++i)
#pragma GCC unroll 4
    for (std::size_t j = 0; j < V; ++j)
      _mm256_storeu_pd(g + (r + i) * ldg + c + 4 * j, acc[i][j]);
}

// Columns of rows [r, r + R): 16-wide tiles, then 4-wide, then scalars.
template <std::size_t R>
inline void rank_k_rows(double* g, std::size_t ldg, std::size_t rows,
                        std::size_t cols, std::size_t r, const double* d,
                        const double* const* x, std::size_t n) noexcept {
  std::size_t c = 0;
  for (; c + 16 <= cols; c += 16)
    rank_k_tile<R, 4>(g, ldg, rows, r, c, d, x, n);
  for (; c + 4 <= cols; c += 4) rank_k_tile<R, 1>(g, ldg, rows, r, c, d, x, n);
  for (; c < cols; ++c)
    for (std::size_t i = 0; i < R; ++i) {
      double a = g[(r + i) * ldg + c];
      for (std::size_t s = 0; s < n; ++s) a += d[s * rows + r + i] * x[s][c];
      g[(r + i) * ldg + c] = a;
    }
}

void rank_k_update_avx2(double* g, std::size_t ldg, std::size_t rows,
                        std::size_t cols, const double* d,
                        const double* const* x, std::size_t n) noexcept {
  // 2 × 16 tiles: 8 accumulators + 4 x vectors + 2 broadcasts = 14 of the
  // 16 ymm registers.
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) rank_k_rows<2>(g, ldg, rows, cols, r, d, x, n);
  if (r < rows) rank_k_rows<1>(g, ldg, rows, cols, r, d, x, n);
}

void exp_nonpositive_avx2(double* x, std::size_t n) noexcept {
  // exp_nonpositive_one, four lanes at a time, op for op.
  const __m256d inv_ln2 = _mm256_set1_pd(kExpInvLn2);
  const __m256d shift = _mm256_set1_pd(kExpShift);
  const __m256d ln2_hi = _mm256_set1_pd(kExpLn2Hi);
  const __m256d ln2_lo = _mm256_set1_pd(kExpLn2Lo);
  const __m256d cutoff = _mm256_set1_pd(kExpCutoff);
  const __m256i shift_bits = _mm256_castpd_si256(shift);
  const __m256i bias = _mm256_set1_epi64x(1023);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d t = _mm256_add_pd(_mm256_mul_pd(v, inv_ln2), shift);
    const __m256d k = _mm256_sub_pd(t, shift);
    const __m256d r = _mm256_sub_pd(_mm256_sub_pd(v, _mm256_mul_pd(k, ln2_hi)),
                                    _mm256_mul_pd(k, ln2_lo));
    __m256d p = _mm256_set1_pd(kExpPoly[kExpDegree]);
#pragma GCC unroll 16
    for (int j = kExpDegree - 1; j >= 0; --j)
      p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kExpPoly[j]));
    const __m256i scale_bits = _mm256_slli_epi64(
        _mm256_add_epi64(_mm256_sub_epi64(_mm256_castpd_si256(t), shift_bits),
                         bias),
        52);
    const __m256d y = _mm256_mul_pd(p, _mm256_castsi256_pd(scale_bits));
    const __m256d below = _mm256_cmp_pd(v, cutoff, _CMP_LT_OQ);
    _mm256_storeu_pd(x + i, _mm256_andnot_pd(below, y));
  }
  for (; i < n; ++i) x[i] = exp_nonpositive_one(x[i]);
}

const KernelTable kAvx2Table = {
    .dot = dot_avx2,
    .axpy = axpy_avx2,
    .axpy4 = axpy4_avx2,
    .scal = scal_avx2,
    .gemv = gemv_avx2,
    .gemv_t = gemv_t_avx2,
    .rank_k_update = rank_k_update_avx2,
    .exp_nonpositive = exp_nonpositive_avx2,
};

}  // namespace

const KernelTable* avx2_table() noexcept { return &kAvx2Table; }

}  // namespace hgc::kernels::detail

#else  // !defined(__AVX2__)

namespace hgc::kernels::detail {

const KernelTable* avx2_table() noexcept { return nullptr; }

}  // namespace hgc::kernels::detail

#endif
