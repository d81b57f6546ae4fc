// Internal dispatch table for the kernel backends (scalar / AVX2).
//
// Each backend is one TU providing a KernelTable of raw-pointer entry
// points; kernels.cpp selects exactly one table per process (cpuid + the
// HGC_KERNEL_BACKEND override) and the public span-based API in kernels.hpp
// forwards through it. Every table entry implements the SAME documented
// summation order (see kernels.hpp) — a backend that cannot reproduce the
// order bit-for-bit must not exist, because the sweep's byte-identity
// contract diffs backends against each other in CI.
//
// This header is internal to src/linalg/: nothing outside the backend TUs
// and kernels.cpp may include it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace hgc::kernels::detail {

struct KernelTable {
  double (*dot)(const double* a, const double* b, std::size_t n) noexcept;
  void (*axpy)(double alpha, const double* x, double* y,
               std::size_t n) noexcept;
  void (*axpy4)(const double* alpha, const double* const* x, double* y,
                std::size_t n) noexcept;
  void (*scal)(double alpha, double* x, std::size_t n) noexcept;
  void (*gemv)(const double* a, std::size_t lda, std::size_t rows,
               std::size_t cols, const double* x, double* y) noexcept;
  void (*gemv_t)(const double* a, std::size_t lda, std::size_t rows,
                 std::size_t cols, const double* x, double* y) noexcept;
  void (*rank_k_update)(double* g, std::size_t ldg, std::size_t rows,
                        std::size_t cols, const double* d,
                        const double* const* x, std::size_t n) noexcept;
  void (*exp_nonpositive)(double* x, std::size_t n) noexcept;
};

// The portable reference implementation; always present.
extern const KernelTable kScalarTable;

/// The AVX2 table, or nullptr when the toolchain could not build the AVX2
/// TU (non-x86 target or a compiler without -mavx2). Whether the *host* can
/// execute it is a separate runtime question (util::cpu_supports_avx2).
const KernelTable* avx2_table() noexcept;

// ---- exp_nonpositive: the one op sequence both backends run --------------
//
// Cody–Waite: k = round(x/ln2) by the 0x1.8p52 shift (t = x·(1/ln2) +
// 1.5·2^52 rounds to an integer in t's low mantissa bits), r = (x − k·ln2_hi)
// − k·ln2_lo with ln2_hi's low 21 bits zero so k·ln2_hi is exact, then the
// degree-13 Taylor polynomial of e^r by Horner (truncation < 6e-18 relative
// on |r| ≤ ln2/2), scaled by 2^k built from t's bits. Below the cutoff the
// result is +0; x ≥ −708 keeps k ≥ −1021, so 2^k is always normal.
inline constexpr double kExpCutoff = -708.0;
inline constexpr double kExpInvLn2 = 0x1.71547652b82fep0;
inline constexpr double kExpShift = 0x1.8p52;
inline constexpr double kExpLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kExpLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr int kExpDegree = 13;
/// kExpPoly[i] = 1/i!, each correctly rounded.
inline constexpr double kExpPoly[kExpDegree + 1] = {
    1.0,           1.0,
    1.0 / 2,       1.0 / 6,
    1.0 / 24,      1.0 / 120,
    1.0 / 720,     1.0 / 5040,
    1.0 / 40320,   1.0 / 362880,
    1.0 / 3628800, 1.0 / 39916800,
    1.0 / 479001600, 1.0 / 6227020800.0};

/// exp_nonpositive's arithmetic for one element, before the cutoff.
inline double exp_nonpositive_unclamped(double x) noexcept {
  const double t = x * kExpInvLn2 + kExpShift;
  const double k = t - kExpShift;
  const double r = (x - k * kExpLn2Hi) - k * kExpLn2Lo;
  double p = kExpPoly[kExpDegree];
  // Unrolled at -O2 too, so the coefficients become immediates and the
  // scalar backend's chunk loop vectorizes.
#pragma GCC unroll 16
  for (int i = kExpDegree - 1; i >= 0; --i) p = p * r + kExpPoly[i];
  // t's bits minus the shift's bits is k (two's complement, |k| < 2^51).
  const std::uint64_t scale_bits = (std::bit_cast<std::uint64_t>(t) -
                                    std::bit_cast<std::uint64_t>(kExpShift) +
                                    1023)
                                   << 52;
  return p * std::bit_cast<double>(scale_bits);
}

/// One element of exp_nonpositive, so both backends spell the sequence
/// once: +0 below the cutoff (−inf included; NaN compares false and
/// propagates).
inline double exp_nonpositive_one(double x) noexcept {
  const double y = exp_nonpositive_unclamped(x);
  return x < kExpCutoff ? 0.0 : y;
}

}  // namespace hgc::kernels::detail
