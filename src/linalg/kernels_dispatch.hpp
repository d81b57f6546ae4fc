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

#include <cstddef>

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
  void (*rank1_update)(double* a, std::size_t lda, std::size_t rows,
                       std::size_t cols, double alpha, const double* x,
                       const double* y) noexcept;
};

// The portable reference implementation; always present.
extern const KernelTable kScalarTable;

/// The AVX2 table, or nullptr when the toolchain could not build the AVX2
/// TU (non-x86 target or a compiler without -mavx2). Whether the *host* can
/// execute it is a separate runtime question (util::cpu_supports_avx2).
const KernelTable* avx2_table() noexcept;

}  // namespace hgc::kernels::detail
