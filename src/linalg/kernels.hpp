// Allocation-free dense kernels under every solve in the decode hot path.
//
// These are the named inner loops of the library: axpy/dot/scal/gemv, a
// register-tiled rank-k update and an exponential for nonpositive
// arguments (the softmax gradient's two hot loops). All of them operate on
// caller-provided storage (spans or raw row-major blocks with a leading
// dimension) and never allocate. They dispatch through a per-process
// backend table (scalar / AVX2) selected once at startup — see "Backends"
// below — and every backend implements the SAME summation order, so the
// backend choice never changes a byte of output.
//
// Determinism contract (the sweep's byte-identical-output guarantee relies
// on this): every kernel uses a FIXED, data-independent summation order.
//   * dot() accumulates SIXTEEN interleaved lanes — lane l sums elements
//     l, l+16, l+32, … in ascending index order — and combines them in a
//     fixed tree chosen to map exactly onto four 4-wide vector
//     accumulators:
//         u_s = (lane_s + lane_{s+4}) + (lane_{s+8} + lane_{s+12})
//         result = (u_0 + u_1) + (u_2 + u_3)
//     for s = 0..3, then adds the scalar tail (n mod 16 elements) in
//     ascending order. The order depends only on the span length, never on
//     alignment, thread count, backend, or call history. (The AVX2 backend
//     keeps lanes s, s+4, s+8, s+12 in vector-lane s of four 256-bit
//     accumulators, so its lanewise adds and ordered horizontal reduce
//     reproduce this tree operation-for-operation.)
//   * gemv() reduces each output element with dot()'s order — row blocking
//     in a backend may interleave rows for throughput, but each row keeps
//     its own sixteen accumulators, so per-element arithmetic is unchanged.
//   * gemv_t() has no reduction — each output element is updated by one
//     in-order pass over the rows, and every per-element update is a single
//     mul + add in every backend (the AVX2 TU is compiled with FP
//     contraction off, so no backend fuses them).
//   * rank_k_update() adds, to each G[r][c], the products d_s[r]·x_s[c] for
//     s = 0, 1, …, n−1 in that order, each a single mul + add — exactly the
//     sequence of n rank-1 updates G += d_s·x_sᵀ. Backends tile G in
//     registers across the samples; the tiling reorders which elements are
//     worked on, never one element's adds.
//   * exp_nonpositive() is an in-repo exponential, so no backend depends on
//     libm: Cody–Waite reduction k = round(x/ln2) (by adding and
//     subtracting 0x1.8p52 after x·(1/ln2)), r = (x − k·ln2_hi) −
//     k·ln2_lo, the degree-13 Taylor polynomial Σ rⁱ/i! by Horner from the
//     top coefficient, and an exact scaling by 2^k assembled from the
//     exponent bits. Every backend runs that op sequence element by element
//     with no fused ops, so all agree bit for bit. Inputs below −708
//     (−inf included) give +0: the cutoff keeps k ≥ −1021, so 2^k is always
//     a normal number, and the true values it drops are under 3.3e-308.
//     NaN in gives NaN out. On [−708, 0] the result is within 1 ULP of
//     std::exp (pinned in test_kernels). Positive inputs are outside the
//     contract.
// Results are therefore bit-identical for identical inputs across runs,
// thread counts, call sites, and backends. Changing any loop here changes
// numeric results globally; re-baseline the figure outputs if you do.
// (dot uses sixteen lanes rather than four so that a SIMD backend can beat
// the scalar one instead of merely matching its four-adds-in-flight
// latency ceiling.)
//
// Backends: the table is chosen on first kernel use (or explicitly via
// set_backend) in this priority order:
//   1. the HGC_KERNEL_BACKEND environment variable (scalar|avx2),
//      when set to an available backend — an unknown or unavailable name
//      warns once on stderr and falls back to auto-detection;
//   2. avx2, when the host supports it (cpuid);
//   3. scalar.
// apps expose the same override as a --kernel-backend flag. Selection is a
// single atomic pointer install: benign if two threads race to first use,
// and set_backend() mid-run only affects subsequent calls (the sweep sets
// it before any cell runs).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

namespace hgc::kernels {

// ---- Backend selection --------------------------------------------------

enum class Backend : int { kScalar = 0, kAvx2 = 1 };

/// The backend servicing kernel calls, selecting one (env override, then
/// cpuid) on first use.
Backend active_backend() noexcept;

/// Force the active backend. Returns false (and changes nothing) when the
/// backend is not available on this build/host.
bool set_backend(Backend backend) noexcept;

/// Stable lower-case name: "scalar" or "avx2".
const char* backend_name(Backend backend) noexcept;

/// Parse a backend name as spelled by backend_name (and the
/// HGC_KERNEL_BACKEND / --kernel-backend overrides).
std::optional<Backend> parse_backend(std::string_view name) noexcept;

// ---- Kernels ------------------------------------------------------------

/// Σ a[i]·b[i] with the sixteen-lane order documented above. Lengths must
/// match (checked by the hgc::dot wrapper; this layer trusts its caller).
double dot(std::span<const double> a, std::span<const double> b) noexcept;

/// y ← y + alpha·x (elementwise; no reduction, order-insensitive).
void axpy(double alpha, std::span<const double> x,
          std::span<double> y) noexcept;

/// Four fused axpys: per element, y[i] += alpha[0]·x[0][i], then
/// alpha[1]·x[1][i], then [2], then [3] — chained in that exact order, each
/// a single mul + add, so the result is bit-identical to four sequential
/// axpy() calls while y streams through cache once instead of four times.
/// The blocked LU's trailing update is built on this.
void axpy4(const double (&alpha)[4], const double* const (&x)[4],
           std::span<double> y) noexcept;

/// x ← alpha·x.
void scal(double alpha, std::span<double> x) noexcept;

/// y ← A·x for a row-major block: y[r] = dot(A[r,0..cols), x).
/// `a` points at the first element, rows are `lda` doubles apart (lda ≥
/// cols, so sub-blocks of a larger matrix work).
void gemv(const double* a, std::size_t lda, std::size_t rows,
          std::size_t cols, std::span<const double> x,
          std::span<double> y) noexcept;

/// y ← Aᵀ·x, accumulated row-wise: y is zeroed, then row r contributes
/// x[r]·A[r,·] via axpy, r ascending — each y[c] sums in row order.
void gemv_t(const double* a, std::size_t lda, std::size_t rows,
            std::size_t cols, std::span<const double> x,
            std::span<double> y) noexcept;

/// G ← G + Σ_s d_s·x_sᵀ over the n = x.size() samples, for a rows×cols
/// row-major G with leading dimension ldg (≥ cols). d holds the n×rows
/// coefficients sample by sample (d_s[r] = d[s·rows + r], so d.size() =
/// n·rows) and x[s] points at sample s's `cols` entries, which need not be
/// contiguous with each other. Each G[r][c] accumulates in ascending s (see
/// the contract above). Sizes are trusted.
void rank_k_update(double* g, std::size_t ldg, std::size_t rows,
                   std::size_t cols, std::span<const double> d,
                   std::span<const double* const> x) noexcept;

/// x[i] ← e^{x[i]} in place, for x[i] ≤ 0, by the op sequence in the
/// contract above: +0 below −708, NaN propagates, within 1 ULP of std::exp
/// on [−708, 0].
void exp_nonpositive(std::span<double> x) noexcept;

}  // namespace hgc::kernels
