// Scalar backend + the per-process backend dispatch.
//
// The scalar implementations below are the reference spelling of the
// documented summation order in kernels.hpp: sixteen named accumulators in
// dot (GCC maps them onto SSE register pairs on x86, so "scalar" is the
// portable baseline, not a strawman), elementwise mul+add everywhere else,
// and exp_nonpositive_one (kernels_dispatch.hpp) for the exponential.
// The AVX2 TU (kernels_avx2.cpp) reproduces the same order with vector
// registers; CI byte-diffs sweep output across backends, so any divergence
// is a build-breaking bug, not a tolerance question.
#include "linalg/kernels.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "linalg/kernels_dispatch.hpp"
#include "obs/metrics.hpp"
#include "util/cpu.hpp"

namespace hgc::kernels {

namespace detail {
namespace {

double dot_scalar(const double* pa, const double* pb,
                  std::size_t n) noexcept {
  // Sixteen independent lanes; the combine tree below is the determinism
  // contract in the header (it mirrors four 4-wide vector accumulators) —
  // do not "simplify" it to a left fold.
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  double l4 = 0.0, l5 = 0.0, l6 = 0.0, l7 = 0.0;
  double l8 = 0.0, l9 = 0.0, l10 = 0.0, l11 = 0.0;
  double l12 = 0.0, l13 = 0.0, l14 = 0.0, l15 = 0.0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    l0 += pa[i] * pb[i];
    l1 += pa[i + 1] * pb[i + 1];
    l2 += pa[i + 2] * pb[i + 2];
    l3 += pa[i + 3] * pb[i + 3];
    l4 += pa[i + 4] * pb[i + 4];
    l5 += pa[i + 5] * pb[i + 5];
    l6 += pa[i + 6] * pb[i + 6];
    l7 += pa[i + 7] * pb[i + 7];
    l8 += pa[i + 8] * pb[i + 8];
    l9 += pa[i + 9] * pb[i + 9];
    l10 += pa[i + 10] * pb[i + 10];
    l11 += pa[i + 11] * pb[i + 11];
    l12 += pa[i + 12] * pb[i + 12];
    l13 += pa[i + 13] * pb[i + 13];
    l14 += pa[i + 14] * pb[i + 14];
    l15 += pa[i + 15] * pb[i + 15];
  }
  const double u0 = (l0 + l4) + (l8 + l12);
  const double u1 = (l1 + l5) + (l9 + l13);
  const double u2 = (l2 + l6) + (l10 + l14);
  const double u3 = (l3 + l7) + (l11 + l15);
  double acc = (u0 + u1) + (u2 + u3);
  for (; i < n; ++i) acc += pa[i] * pb[i];
  return acc;
}

void axpy_scalar(double alpha, const double* px, double* py,
                 std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    py[i] += alpha * px[i];
    py[i + 1] += alpha * px[i + 1];
    py[i + 2] += alpha * px[i + 2];
    py[i + 3] += alpha * px[i + 3];
  }
  for (; i < n; ++i) py[i] += alpha * px[i];
}

void axpy4_scalar(const double* alpha, const double* const* px, double* py,
                  std::size_t n) noexcept {
  const double a0 = alpha[0], a1 = alpha[1], a2 = alpha[2], a3 = alpha[3];
  const double* x0 = px[0];
  const double* x1 = px[1];
  const double* x2 = px[2];
  const double* x3 = px[3];
  for (std::size_t i = 0; i < n; ++i) {
    double v = py[i];
    v += a0 * x0[i];
    v += a1 * x1[i];
    v += a2 * x2[i];
    v += a3 * x3[i];
    py[i] = v;
  }
}

void scal_scalar(double alpha, double* px, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    px[i] *= alpha;
    px[i + 1] *= alpha;
    px[i + 2] *= alpha;
    px[i + 3] *= alpha;
  }
  for (; i < n; ++i) px[i] *= alpha;
}

void gemv_scalar(const double* a, std::size_t lda, std::size_t rows,
                 std::size_t cols, const double* x, double* y) noexcept {
  for (std::size_t r = 0; r < rows; ++r)
    y[r] = dot_scalar(a + r * lda, x, cols);
}

void gemv_t_scalar(const double* a, std::size_t lda, std::size_t rows,
                   std::size_t cols, const double* x, double* y) noexcept {
  for (std::size_t c = 0; c < cols; ++c) y[c] = 0.0;
  for (std::size_t r = 0; r < rows; ++r)
    axpy_scalar(x[r], a + r * lda, y, cols);
}

void rank_k_update_scalar(double* g, std::size_t ldg, std::size_t rows,
                          std::size_t cols, const double* d,
                          const double* const* x, std::size_t n) noexcept {
  // Four columns of one row stay in registers across all n samples; each
  // element still sums its products in ascending sample order.
  for (std::size_t r = 0; r < rows; ++r) {
    double* gr = g + r * ldg;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      double a0 = gr[c], a1 = gr[c + 1], a2 = gr[c + 2], a3 = gr[c + 3];
      for (std::size_t s = 0; s < n; ++s) {
        const double ds = d[s * rows + r];
        const double* xs = x[s] + c;
        a0 += ds * xs[0];
        a1 += ds * xs[1];
        a2 += ds * xs[2];
        a3 += ds * xs[3];
      }
      gr[c] = a0;
      gr[c + 1] = a1;
      gr[c + 2] = a2;
      gr[c + 3] = a3;
    }
    for (; c < cols; ++c) {
      double a = gr[c];
      for (std::size_t s = 0; s < n; ++s) a += d[s * rows + r] * x[s][c];
      gr[c] = a;
    }
  }
}

void exp_nonpositive_scalar(double* x, std::size_t n) noexcept {
  // Whole 16-element chunks run the arithmetic and the cutoff select as two
  // loops: GCC does not if-convert the select, and with it in the loop body
  // the arithmetic would not vectorize (on SSE2, two lanes at a time; same
  // ops per element, so same bits).
  constexpr std::size_t kChunk = 16;
  std::size_t i = 0;
  for (; i + kChunk <= n; i += kChunk) {
    double args[kChunk] = {};
    for (std::size_t j = 0; j < kChunk; ++j) args[j] = x[i + j];
    for (std::size_t j = 0; j < kChunk; ++j)
      x[i + j] = exp_nonpositive_unclamped(args[j]);
    for (std::size_t j = 0; j < kChunk; ++j)
      if (args[j] < kExpCutoff) x[i + j] = 0.0;
  }
  for (; i < n; ++i) x[i] = exp_nonpositive_one(x[i]);
}

}  // namespace

const KernelTable kScalarTable = {
    .dot = dot_scalar,
    .axpy = axpy_scalar,
    .axpy4 = axpy4_scalar,
    .scal = scal_scalar,
    .gemv = gemv_scalar,
    .gemv_t = gemv_t_scalar,
    .rank_k_update = rank_k_update_scalar,
    .exp_nonpositive = exp_nonpositive_scalar,
};

}  // namespace detail

namespace {

const detail::KernelTable* table_for(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return &detail::kScalarTable;
    case Backend::kAvx2:
      return util::cpu_supports_avx2() ? detail::avx2_table() : nullptr;
  }
  return nullptr;
}

// The installed table and its enum tag. Both are written exactly once per
// selection (release), read with acquire on the cold path only — steady
// state is one predictable-branch acquire load per kernel call.
std::atomic<const detail::KernelTable*> g_table{nullptr};
std::atomic<Backend> g_backend{Backend::kScalar};

void publish(Backend backend, const detail::KernelTable* table) noexcept {
  g_backend.store(backend, std::memory_order_release);
  g_table.store(table, std::memory_order_release);
  if (obs::metrics_enabled()) {
    // Snapshots record which backend produced the numbers (a gauge: the
    // last selection wins, which is also the one that served the run).
    obs::Registry::global()
        .gauge("kernels.backend")
        .set(static_cast<double>(static_cast<int>(backend)));
  }
}

Backend auto_detect() noexcept {
  if (table_for(Backend::kAvx2) != nullptr) return Backend::kAvx2;
  return Backend::kScalar;
}

// Cold path: consult HGC_KERNEL_BACKEND, then cpuid. Racing first calls
// all compute the same answer, so the unsynchronized double-publish is
// benign.
const detail::KernelTable& select_initial() noexcept {
  Backend chosen = auto_detect();
  if (const char* env = std::getenv("HGC_KERNEL_BACKEND")) {
    const std::optional<Backend> named = parse_backend(env);
    if (!named.has_value()) {
      std::fprintf(stderr,
                   "hgc: HGC_KERNEL_BACKEND='%s' is not a backend name "
                   "(scalar|avx2); auto-detecting '%s' instead\n",
                   env, backend_name(chosen));
    } else if (table_for(*named) == nullptr) {
      std::fprintf(stderr,
                   "hgc: HGC_KERNEL_BACKEND=%s is not available on this "
                   "build/host; auto-detecting '%s' instead\n",
                   backend_name(*named), backend_name(chosen));
    } else {
      chosen = *named;
    }
  }
  const detail::KernelTable* table = table_for(chosen);
  publish(chosen, table);
  return *table;
}

inline const detail::KernelTable& active_table() noexcept {
  const detail::KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table != nullptr) [[likely]]
    return *table;
  return select_initial();
}

}  // namespace

Backend active_backend() noexcept {
  active_table();  // force selection on first use
  return g_backend.load(std::memory_order_acquire);
}

bool set_backend(Backend backend) noexcept {
  const detail::KernelTable* table = table_for(backend);
  if (table == nullptr) return false;
  publish(backend, table);
  return true;
}

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) noexcept {
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  return std::nullopt;
}

double dot(std::span<const double> a, std::span<const double> b) noexcept {
  return active_table().dot(a.data(), b.data(), a.size());
}

void axpy(double alpha, std::span<const double> x,
          std::span<double> y) noexcept {
  active_table().axpy(alpha, x.data(), y.data(), x.size());
}

void axpy4(const double (&alpha)[4], const double* const (&x)[4],
           std::span<double> y) noexcept {
  active_table().axpy4(alpha, x, y.data(), y.size());
}

void scal(double alpha, std::span<double> x) noexcept {
  active_table().scal(alpha, x.data(), x.size());
}

void gemv(const double* a, std::size_t lda, std::size_t rows,
          std::size_t cols, std::span<const double> x,
          std::span<double> y) noexcept {
  active_table().gemv(a, lda, rows, cols, x.data(), y.data());
}

void gemv_t(const double* a, std::size_t lda, std::size_t rows,
            std::size_t cols, std::span<const double> x,
            std::span<double> y) noexcept {
  active_table().gemv_t(a, lda, rows, cols, x.data(), y.data());
}

void rank_k_update(double* g, std::size_t ldg, std::size_t rows,
                   std::size_t cols, std::span<const double> d,
                   std::span<const double* const> x) noexcept {
  active_table().rank_k_update(g, ldg, rows, cols, d.data(), x.data(),
                               x.size());
}

void exp_nonpositive(std::span<double> x) noexcept {
  active_table().exp_nonpositive(x.data(), x.size());
}

}  // namespace hgc::kernels
