// Microbenchmarks — construction and decoding costs of the coding layer
// (google-benchmark). Backs the paper's Section III-B complexity remarks:
// decoding-vector solves are "usually ignorable" next to gradient compute,
// and quantifies the two caches: the decoding-coefficient LRU on a
// repeated-straggler ("regular stragglers") workload and the shared scheme
// cache against from-scratch construction. The *Cached benches export a
// hit_rate counter so the win is measured, not assumed.
//
// The BM_Kernel* group times the linalg kernel/workspace layer at the
// shapes the decode hot path actually solves (fig3-small m=8 and
// Cluster-D m=58), reporting mflops and — via the instrumented global
// allocator below — allocs_per_iter, so the workspace layer's
// zero-steady-state-allocation claim is measured, not asserted.
// BM_EngineRound does the same for engine::run_round: one timing-only round
// at 64 and 10,000 workers, whose allocation count must not grow with m.
// BM_GroupSearch times Alg. 2's group search at 10,000 workers, where a
// return to per-worker k-bit partition masks would cost ~5x.
//
// Flags: our own (`--json out.json` writes the google-benchmark JSON
// report, for CI's perf-smoke floor check) parse through util/args with its
// strict `--key value` rules; anything starting with --benchmark passes
// through to google-benchmark (e.g. --benchmark_filter=Kernel).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/allocation.hpp"
#include "core/decoder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/decoding_cache.hpp"
#include "core/group_based.hpp"
#include "core/groups.hpp"
#include "core/heter_aware.hpp"
#include "core/robustness.hpp"
#include "core/scheme_cache.hpp"
#include "core/scheme_factory.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "linalg/kernels.hpp"
#include "linalg/sparse.hpp"
#include "linalg/workspace.hpp"
#include "sim/experiment.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"

#include "util/alloc_instrument.hpp"  // instruments this whole binary

namespace {

using namespace hgc;

/// Scope helper: counters["allocs_per_iter"] from the delta across the
/// timing loop. Construct before the loop, call report() after.
class AllocCounter {
 public:
  AllocCounter() : start_(alloc_instrument::allocation_count()) {}
  void report(benchmark::State& state) const {
    const auto total = alloc_instrument::allocation_count() - start_;
    state.counters["allocs_per_iter"] =
        state.iterations() > 0
            ? static_cast<double>(total) /
                  static_cast<double>(state.iterations())
            : 0.0;
  }

 private:
  std::size_t start_;
};

/// MFLOP/s counter: `flops` floating-point operations per iteration.
void report_mflops(benchmark::State& state, double flops) {
  state.counters["mflops"] = benchmark::Counter(
      flops * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
}

Throughputs spread_throughputs(std::size_t m) {
  Throughputs c(m);
  for (std::size_t i = 0; i < m; ++i)
    c[i] = 2.0 + static_cast<double>(i % 8) * 2.0;  // 2..16, Table II-like
  return c;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  return m;
}

// ------------------------------------------------------ kernel benches --
// Shapes: {8, 16} is the fig3-small regime (m = 8 workers, k = 2m), {58,
// 116} is Cluster-D (m = 58); gradient-length axpy/dot use DNN-sized flat
// vectors.

void BM_KernelAxpy(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Vector x(dim, 0.5), y(dim, 0.25);
  for (auto _ : state) {
    kernels::axpy(1e-9, x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  report_mflops(state, 2.0 * static_cast<double>(dim));
}
BENCHMARK(BM_KernelAxpy)->Arg(116)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_KernelDot(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  Vector x(dim), y(dim);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  for (auto _ : state) {
    double d = kernels::dot(x, y);
    benchmark::DoNotOptimize(d);
  }
  report_mflops(state, 2.0 * static_cast<double>(dim));
}
BENCHMARK(BM_KernelDot)->Arg(116)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_KernelScal(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Vector x(dim, 0.5);
  // alpha ~ 1 so repeated scaling neither under- nor overflows across the
  // benchmark's many iterations.
  for (auto _ : state) {
    kernels::scal(1.0 - 1e-12, x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  report_mflops(state, static_cast<double>(dim));
}
BENCHMARK(BM_KernelScal)->Arg(116)->Arg(1 << 10)->Arg(1 << 14);

void BM_KernelGemv(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  Rng rng(22);
  const Matrix a = random_matrix(m, k, rng);
  Vector x(k, 0.5), y(m);
  for (auto _ : state) {
    kernels::gemv(a.data().data(), k, m, k, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  report_mflops(state, 2.0 * static_cast<double>(m * k));
}
BENCHMARK(BM_KernelGemv)->Args({8, 16})->Args({58, 116})->Args({256, 1024});

void BM_KernelGemvT(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  Rng rng(22);
  const Matrix a = random_matrix(m, k, rng);
  Vector x(m, 0.5), y(k);
  for (auto _ : state) {
    kernels::gemv_t(a.data().data(), k, m, k, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  report_mflops(state, 2.0 * static_cast<double>(m * k));
}
BENCHMARK(BM_KernelGemvT)->Args({8, 16})->Args({58, 116})->Args({256, 1024});

void BM_KernelRankKUpdate(benchmark::State& state) {
  // The softmax gradient's weight update for one 64-row block: G (classes
  // × dim) += Σ_s d_s·x_sᵀ.
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kSamples = 64;
  Rng rng(23);
  Matrix g = random_matrix(rows, cols, rng);
  const Matrix features = random_matrix(kSamples, cols, rng);
  const Vector d(kSamples * rows, 1e-9);
  std::vector<const double*> x(kSamples);
  for (std::size_t s = 0; s < kSamples; ++s) x[s] = features.row(s).data();
  for (auto _ : state) {
    kernels::rank_k_update(g.data().data(), cols, rows, cols, d, x);
    benchmark::DoNotOptimize(g.data().data());
    benchmark::ClobberMemory();
  }
  report_mflops(state, 2.0 * static_cast<double>(rows * cols * kSamples));
}
BENCHMARK(BM_KernelRankKUpdate)->Args({10, 32});

void BM_KernelExpNonpositive(benchmark::State& state) {
  // In place, so each iteration restores the arguments first; "mflops"
  // counts one op per exp (millions of exps per second).
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(25);
  Vector args(n);
  for (double& v : args) v = -20.0 * rng.uniform();
  Vector x(n);
  for (auto _ : state) {
    std::copy(args.begin(), args.end(), x.begin());
    kernels::exp_nonpositive(x);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  report_mflops(state, static_cast<double>(n));
}
BENCHMARK(BM_KernelExpNonpositive)->Arg(1 << 10);

void BM_KernelLuSolveWorkspace(benchmark::State& state) {
  // Alg. 1's per-partition solve through a reused LuWorkspace (copy +
  // factor + solve): zero allocations steady-state.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(24);
  Matrix a = random_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  const Vector ones(n, 1.0);
  LuWorkspace ws;
  Vector x;
  ws.factor(a);
  ws.solve_into(ones, x);  // warm-up sizes every buffer
  AllocCounter allocs;
  for (auto _ : state) {
    ws.factor(a);
    ws.solve_into(ones, x);
    benchmark::DoNotOptimize(x.data());
  }
  allocs.report(state);
  report_mflops(state, 2.0 / 3.0 * static_cast<double>(n * n * n) +
                           2.0 * static_cast<double>(n * n));
}
// 2/4/8 are the decode shapes Alg. 1 actually hits; 64/128 are there to
// watch the blocked right-looking factorization (panel width 32), whose
// cache win only shows once the trailing matrix stops fitting in L1.
BENCHMARK(BM_KernelLuSolveWorkspace)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(64)
    ->Arg(128);

void BM_KernelLeastSquaresWorkspace(benchmark::State& state) {
  // The generic-decode inner solve at decode shapes: B_Rᵀ is k×|R| with one
  // straggler missing, packed from the sparse rows of B (the decoder's
  // factor_transposed) into a reused QrWorkspace, then solved.
  const auto m = static_cast<std::size_t>(state.range(0));
  const Throughputs c = spread_throughputs(m);
  Rng rng(25);
  HeterAwareScheme scheme(c, 2 * m, 1, rng);
  std::vector<std::size_t> rows;
  for (std::size_t w = 1; w < m; ++w) rows.push_back(w);
  const SparseRowMatrix& b = scheme.sparse_matrix();
  const Vector ones(b.cols(), 1.0);
  QrWorkspace ws;
  Vector x;
  ws.factor_transposed(b, rows);
  ws.solve_into(ones, x);  // warm-up
  AllocCounter allocs;
  for (auto _ : state) {
    ws.factor_transposed(b, rows);
    double residual = ws.solve_into(ones, x);
    benchmark::DoNotOptimize(residual);
    benchmark::DoNotOptimize(x.data());
  }
  allocs.report(state);
}
BENCHMARK(BM_KernelLeastSquaresWorkspace)->Arg(8)->Arg(58);

void BM_Condition1Workspace(benchmark::State& state) {
  // The robustness sweep: C(m, s) least-squares solves per call over the
  // sparse B, one per-thread workspace across the whole enumeration.
  // allocs_per_iter ≈ 0 after the warm-up call is the acceptance criterion.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const Throughputs c = spread_throughputs(m);
  Rng rng(26);
  HeterAwareScheme scheme(c, 2 * m, s, rng);
  const SparseRowMatrix& b = scheme.sparse_matrix();
  bool ok = satisfies_condition1(b, s);  // warm-up
  AllocCounter allocs;
  for (auto _ : state) {
    ok = satisfies_condition1(b, s);
    benchmark::DoNotOptimize(ok);
  }
  allocs.report(state);
}
BENCHMARK(BM_Condition1Workspace)->Args({8, 2})->Args({12, 2})->Args({16, 2});

void BM_HeterAwareConstruction(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const Throughputs c = spread_throughputs(m);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    HeterAwareScheme scheme(c, 2 * m, s, rng);
    benchmark::DoNotOptimize(scheme.sparse_matrix());
  }
}
BENCHMARK(BM_HeterAwareConstruction)
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({32, 1})
    ->Args({58, 1})
    ->Args({58, 3});

void BM_GroupBasedConstruction(benchmark::State& state, const Throughputs& c,
                               std::size_t k, std::size_t s) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    GroupBasedScheme scheme(c, k, s, rng);
    benchmark::DoNotOptimize(scheme.sparse_matrix());
  }
}

void BM_GroupBasedConstruction(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  BM_GroupBasedConstruction(state, spread_throughputs(m), 2 * m, 1);
}
BENCHMARK(BM_GroupBasedConstruction)->Arg(8)->Arg(16)->Arg(32)->Arg(58);

// Table II Cluster-D at s = 2 with the exact Eq. 5 k (108): it has 28,561
// exact covers, so the group search stops at its 256-cover cap.
BENCHMARK_CAPTURE(BM_GroupBasedConstruction, cluster_d_s2,
                  cluster_d().throughputs(),
                  exact_partition_count(cluster_d(), 2), 2);

void BM_GroupSearch(benchmark::State& state) {
  // Alg. 2 alone (find_disjoint_groups) on scale_cluster(m) at
  // s = 2, k = 2m: the search a group-based scheme repeats on every churn
  // rebuild of the 10k-worker grid. The 256-cover cap binds, so this times
  // a DFS cut off at 256 emitted covers of ~0.57m workers each.
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 2 * m;
  const Assignment assignment = cyclic_assignment(
      heter_aware_counts(scale_cluster(m).throughputs(), k, 2), k);
  for (auto _ : state) {
    std::vector<Group> groups = find_disjoint_groups(assignment, k);
    benchmark::DoNotOptimize(groups);
  }
}
BENCHMARK(BM_GroupSearch)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_DecodeVectorSolve(benchmark::State& state) {
  // The real-time decoding path for an irregular straggler pattern: a
  // null-space solve on the straggler columns of C (O(s^3), Section III-B).
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const Throughputs c = spread_throughputs(m);
  Rng rng(9);
  HeterAwareScheme scheme(c, 2 * m, s, rng);
  std::vector<bool> received(m, true);
  for (std::size_t i = 0; i < s; ++i) received[2 * i] = false;
  auto warmup = scheme.decoding_coefficients(received);
  benchmark::DoNotOptimize(warmup);
  AllocCounter allocs;
  for (auto _ : state) {
    auto coefficients = scheme.decoding_coefficients(received);
    benchmark::DoNotOptimize(coefficients);
  }
  allocs.report(state);  // steady state: just the returned vector
}
BENCHMARK(BM_DecodeVectorSolve)
    ->Args({8, 1})
    ->Args({32, 1})
    ->Args({58, 1})
    ->Args({58, 3})
    ->Args({58, 5});

void BM_GenericLeastSquaresDecode(benchmark::State& state) {
  // The generic fallback the group scheme uses for mixed arrival sets.
  const auto m = static_cast<std::size_t>(state.range(0));
  const Throughputs c = spread_throughputs(m);
  Rng rng(10);
  GroupBasedScheme scheme(c, 2 * m, 1, rng);
  std::vector<bool> received(m, true);
  received[0] = false;
  auto warmup = scheme.decoding_coefficients(received);
  benchmark::DoNotOptimize(warmup);
  AllocCounter allocs;
  for (auto _ : state) {
    auto coefficients = scheme.decoding_coefficients(received);
    benchmark::DoNotOptimize(coefficients);
  }
  allocs.report(state);
}
BENCHMARK(BM_GenericLeastSquaresDecode)->Arg(8)->Arg(32)->Arg(58);

/// A small rotating working set of straggler patterns — the paper's
/// "regular stragglers": the same few workers straggle in steady state.
std::vector<std::vector<bool>> regular_straggler_patterns(std::size_t m,
                                                          std::size_t s) {
  std::vector<std::vector<bool>> patterns;
  for (std::size_t shift = 0; shift < 4; ++shift) {
    std::vector<bool> received(m, true);
    for (std::size_t i = 0; i < s; ++i) received[(2 * i + shift) % m] = false;
    patterns.push_back(std::move(received));
  }
  return patterns;
}

void BM_DecodeRegularStragglersUncached(benchmark::State& state) {
  // Baseline for the cache comparison: every recurrence of a regular
  // pattern pays the full solve.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const Throughputs c = spread_throughputs(m);
  Rng rng(9);
  HeterAwareScheme scheme(c, 2 * m, s, rng);
  const auto patterns = regular_straggler_patterns(m, s);
  std::size_t i = 0;
  for (auto _ : state) {
    auto coefficients = scheme.decoding_coefficients(patterns[i]);
    i = (i + 1) % patterns.size();
    benchmark::DoNotOptimize(coefficients);
  }
}
BENCHMARK(BM_DecodeRegularStragglersUncached)
    ->Args({32, 1})
    ->Args({58, 1})
    ->Args({58, 3});

void BM_DecodeRegularStragglersCached(benchmark::State& state) {
  // Same workload through the DecodingCache: after one miss per pattern,
  // everything is an LRU hit — the Section III-B storage optimization.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const Throughputs c = spread_throughputs(m);
  Rng rng(9);
  HeterAwareScheme scheme(c, 2 * m, s, rng);
  DecodingCache cache(scheme, 64);
  const auto patterns = regular_straggler_patterns(m, s);
  std::size_t i = 0;
  for (auto _ : state) {
    auto coefficients = cache.decode(patterns[i]);
    i = (i + 1) % patterns.size();
    benchmark::DoNotOptimize(coefficients);
  }
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) /
      static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_DecodeRegularStragglersCached)
    ->Args({32, 1})
    ->Args({58, 1})
    ->Args({58, 3});

void BM_CompletionTimeRegularStragglers(benchmark::State& state) {
  // robustness::completion_time under a recurring straggler working set
  // (range(2) = 1 shares a DecodingCache across calls, 0 re-solves). This
  // is the steady-state master: the same few workers straggle, so after
  // one warm-up lap every arrival-prefix probe is an LRU hit.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const bool cached = state.range(2) != 0;
  const Throughputs c = spread_throughputs(m);
  Rng rng(15);
  HeterAwareScheme scheme(c, 2 * m, s, rng);
  std::vector<StragglerSet> working_set;
  for (std::size_t shift = 0; shift < 4; ++shift) {
    StragglerSet stragglers;
    for (std::size_t i = 0; i < s; ++i)
      stragglers.push_back((2 * i + shift) % m);
    std::sort(stragglers.begin(), stragglers.end());
    working_set.push_back(std::move(stragglers));
  }
  DecodingCache cache(scheme, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    auto t = completion_time(scheme, c, working_set[i],
                             cached ? &cache : nullptr);
    i = (i + 1) % working_set.size();
    benchmark::DoNotOptimize(t);
  }
  if (cached)
    state.counters["hit_rate"] =
        static_cast<double>(cache.hits()) /
        static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_CompletionTimeRegularStragglers)
    ->Args({32, 1, 0})
    ->Args({32, 1, 1})
    ->Args({58, 3, 0})
    ->Args({58, 3, 1});

void BM_WorstCaseTimeCached(benchmark::State& state) {
  // The C(m, s) enumeration with a shared decoding cache (range(2) = 1)
  // versus brute-force solving every prefix (range(2) = 0). Fractional
  // repetition is the regime with real prefix reuse: its decode quorum
  // (one result per block) is far below m − s, so once it is met every
  // pattern probes a ladder of prefixes that overlap heavily between
  // patterns — the hit_rate counter is the fraction of probes answered from
  // the LRU.
  // (Wall time can still favour uncached here because fractional's solve is
  // a cheap block scan; the cache's wall-time win needs an expensive solve,
  // measured by BM_CompletionTimeRegularStragglers above.)
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const bool cached = state.range(2) != 0;
  const Throughputs c = spread_throughputs(m);
  Rng rng(14);
  const auto scheme =
      make_scheme(SchemeKind::kFractionalRepetition, c, 2 * m, s, rng);
  double hit_rate = 0.0;
  for (auto _ : state) {
    if (cached) {
      DecodingCache cache(*scheme, 4096);
      auto worst = worst_case_time(*scheme, c, &cache);
      hit_rate = static_cast<double>(cache.hits()) /
                 static_cast<double>(cache.hits() + cache.misses());
      benchmark::DoNotOptimize(worst);
    } else {
      auto worst = worst_case_time(*scheme, c);
      benchmark::DoNotOptimize(worst);
    }
  }
  if (cached) state.counters["hit_rate"] = hit_rate;
}
BENCHMARK(BM_WorstCaseTimeCached)
    ->Args({12, 2, 0})
    ->Args({12, 2, 1})
    ->Args({18, 2, 0})
    ->Args({18, 2, 1});

void BM_SchemeCacheGetOrCreate(benchmark::State& state) {
  // Steady-state sweep-cell behaviour: after the first miss every cell
  // asking for the same fingerprint gets the interned scheme back.
  const auto m = static_cast<std::size_t>(state.range(0));
  const Throughputs c = spread_throughputs(m);
  SchemeCache cache;
  for (auto _ : state) {
    auto scheme =
        cache.get_or_create(SchemeKind::kHeterAware, c, 2 * m, 1, 7);
    benchmark::DoNotOptimize(scheme);
  }
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) /
      static_cast<double>(cache.hits() + cache.misses());
}
BENCHMARK(BM_SchemeCacheGetOrCreate)->Arg(16)->Arg(58);

// -------------------------------------------------- sparse coding layer --
// The CSR representation is what holds B at 10k-worker scale; these benches
// pin its two hot shapes. The sparse kernels are scalar by design (rows are
// ≤(s+1)-sparse, no lane tree), so floors in kernels_baseline.json use
// unsuffixed keys that bind every backend leg.

void BM_SparseGemvT(benchmark::State& state) {
  // a·B for a full coefficient vector — the verification product at scale.
  // mflops counts 2·nnz true operations, not the 2·m·k a dense gemv_t pays.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const Throughputs c = spread_throughputs(m);
  Rng rng(27);
  HeterAwareScheme scheme(c, 2 * m, s, rng);
  const SparseRowMatrix& b = scheme.sparse_matrix();
  Vector x(m, 0.5), y(b.cols());
  AllocCounter allocs;
  for (auto _ : state) {
    sparse::gemv_t(b, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  allocs.report(state);  // kernels are allocation-free: expect 0
  report_mflops(state, 2.0 * static_cast<double>(b.nnz()));
}
BENCHMARK(BM_SparseGemvT)
    ->Args({58, 3})
    ->Args({1000, 2})
    ->Args({10000, 2});

void BM_SparseDecode(benchmark::State& state) {
  // Real-time decode at scale: the O(m) received scan plus the O(s³)
  // null-space solve, with B never materialized densely. At m = 10,000 the
  // dense representation alone would be 1.6 GB; this path touches O(m·s).
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const Throughputs c = spread_throughputs(m);
  Rng rng(28);
  HeterAwareScheme scheme(c, 2 * m, s, rng);
  std::vector<bool> received(m, true);
  for (std::size_t i = 0; i < s; ++i) received[2 * i] = false;
  auto warmup = scheme.decoding_coefficients(received);
  benchmark::DoNotOptimize(warmup);
  AllocCounter allocs;
  for (auto _ : state) {
    auto coefficients = scheme.decoding_coefficients(received);
    benchmark::DoNotOptimize(coefficients);
  }
  allocs.report(state);  // steady state: just the returned vector
}
BENCHMARK(BM_SparseDecode)->Args({1000, 2})->Args({10000, 2});

// -------------------------------------------------------- engine round --

void BM_EngineRound(benchmark::State& state) {
  // One timing-only heterogeneity-aware round (s = 2, two stragglers). The
  // arrival list is reserved once for m workers, so allocs_per_iter is a
  // small constant at any m instead of growing with the arrivals.
  const auto m = static_cast<std::size_t>(state.range(0));
  const Cluster cluster = scale_cluster(m);
  Rng rng(29);
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), m, 2, rng);
  IterationConditions conditions;
  conditions.speed_factor.assign(m, 1.0);
  conditions.delay.assign(m, 0.0);
  conditions.faulted.assign(m, false);
  conditions.delay[0] = 1.0;
  conditions.delay[m / 2] = 1.0;
  engine::FixedLatencyLink link;
  AllocCounter allocs;
  for (auto _ : state) {
    engine::RoundOutcome outcome =
        engine::run_round(*scheme, cluster, conditions, link);
    benchmark::DoNotOptimize(outcome);
  }
  allocs.report(state);
}
BENCHMARK(BM_EngineRound)->Arg(64)->Arg(10000);

void BM_EncodeGradient(benchmark::State& state) {
  // Worker-side linear combination for a DNN-sized flat gradient.
  const auto dim = static_cast<std::size_t>(state.range(0));
  const Throughputs c = spread_throughputs(8);
  Rng rng(11);
  HeterAwareScheme scheme(c, 16, 1, rng);
  std::vector<Vector> grads(16, Vector(dim, 0.5));
  for (auto _ : state) {
    Vector coded = encode_gradient(scheme, 7, grads);
    benchmark::DoNotOptimize(coded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim) * 8);
}
BENCHMARK(BM_EncodeGradient)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_BuildDecodingMatrix(benchmark::State& state) {
  // Offline Eq. 2 table for all C(m, s) regular patterns.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<std::size_t>(state.range(1));
  const Throughputs c = spread_throughputs(m);
  Rng rng(13);
  HeterAwareScheme scheme(c, 2 * m, s, rng);
  for (auto _ : state) {
    auto rows = build_decoding_matrix(scheme);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_BuildDecodingMatrix)->Args({8, 1})->Args({8, 2})->Args({16, 2});

// ------------------------------------------------ observability benches --
// The obs layer's disabled-cost contract: an instrumented site pays one
// relaxed atomic load + branch when observability is off. The *Disabled
// benches pin that with max_real_time_ns ceilings in kernels_baseline.json
// (CI perf-smoke); the *Enabled variants quantify the turned-on cost so a
// hot-path regression is visible in the console table. Every bench leaves
// both systems disabled on exit — later benches time instrumented code
// (decode solves, caches) and must not pay the enabled path.

void BM_ObsOverheadCounterDisabled(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  // The exact site pattern used across src/: guard first, bind the registry
  // handle lazily inside the branch (never reached while disabled).
  AllocCounter allocs;
  for (auto _ : state) {
    if (obs::metrics_enabled()) {
      static const obs::Counter c =
          obs::Registry::global().counter("bench.obs_counter");
      c.add();
    }
    benchmark::ClobberMemory();
  }
  allocs.report(state);
}
BENCHMARK(BM_ObsOverheadCounterDisabled);

void BM_ObsOverheadCounterEnabled(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  const obs::Counter c = obs::Registry::global().counter("bench.obs_counter");
  c.add();  // warm-up: registers the slot and acquires this thread's shard
  AllocCounter allocs;
  for (auto _ : state) {
    c.add();
    benchmark::ClobberMemory();
  }
  allocs.report(state);
  obs::set_metrics_enabled(false);
}
BENCHMARK(BM_ObsOverheadCounterEnabled);

void BM_ObsOverheadHistogramDisabled(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  const obs::Histogram h = obs::Registry::global().histogram(
      "bench.obs_histogram", {1e-6, 1e-4, 1e-2, 1.0});
  double x = 0.5;
  AllocCounter allocs;
  for (auto _ : state) {
    h.observe(x);  // internal enabled-guard returns immediately
    benchmark::DoNotOptimize(x);
  }
  allocs.report(state);
}
BENCHMARK(BM_ObsOverheadHistogramDisabled);

void BM_ObsOverheadHistogramEnabled(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  const obs::Histogram h = obs::Registry::global().histogram(
      "bench.obs_histogram", {1e-6, 1e-4, 1e-2, 1.0});
  h.observe(0.5);  // warm-up
  double x = 0.5;
  AllocCounter allocs;
  for (auto _ : state) {
    h.observe(x);
    benchmark::DoNotOptimize(x);
  }
  allocs.report(state);
  obs::set_metrics_enabled(false);
}
BENCHMARK(BM_ObsOverheadHistogramEnabled);

void BM_ObsOverheadTraceScopeDisabled(benchmark::State& state) {
  obs::set_trace_enabled(false);
  AllocCounter allocs;
  for (auto _ : state) {
    HGC_TRACE_SCOPE("bench", "bench", 0);
    benchmark::ClobberMemory();
  }
  allocs.report(state);
}
BENCHMARK(BM_ObsOverheadTraceScopeDisabled);

void BM_ObsOverheadTraceScopeEnabled(benchmark::State& state) {
  // Fixed iteration count: the per-thread buffer caps at 2^20 events, and a
  // saturated buffer would silently time the (cheaper) drop path instead of
  // the record path.
  obs::Tracer::global().reset();
  obs::set_trace_enabled(true);
  for (auto _ : state) {
    HGC_TRACE_SCOPE("bench", "bench", 0);
    benchmark::ClobberMemory();
  }
  obs::set_trace_enabled(false);
  obs::Tracer::global().reset();
}
BENCHMARK(BM_ObsOverheadTraceScopeEnabled)->Iterations(1 << 18);

// Snapshot-path costs: aggregation and the fleet-merge fold. Neither is on
// a solve hot path (snapshots happen at recorder/exit frequency), so the
// baseline ceilings are gross-regression guards only.

void BM_ObsSnapshotRegistry(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().counter("bench.snap_counter").add(7);
  obs::Registry::global().gauge("bench.snap_gauge").set(2.5);
  obs::Registry::global()
      .histogram("bench.snap_hist", {1e-6, 1e-4, 1e-2, 1.0})
      .observe(0.5);
  obs::Registry::global().stat("bench.snap_stat").observe(1.0);
  for (auto _ : state) {
    obs::Snapshot snap = obs::Registry::global().snapshot();
    benchmark::DoNotOptimize(snap);
  }
  obs::set_metrics_enabled(false);
}
BENCHMARK(BM_ObsSnapshotRegistry);

void BM_ObsSnapshotMerge(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().counter("bench.snap_counter").add(7);
  obs::Registry::global()
      .histogram("bench.snap_hist", {1e-6, 1e-4, 1e-2, 1.0})
      .observe(0.5);
  obs::Registry::global().stat("bench.snap_stat").observe(1.0);
  const obs::Snapshot shard = obs::Registry::global().snapshot();
  obs::set_metrics_enabled(false);
  for (auto _ : state) {
    obs::Snapshot merged = shard;
    merged.merge(shard);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_ObsSnapshotMerge);

}  // namespace

// Custom main: split our flags from google-benchmark's. `--json out.json`
// writes the JSON report (counters included) next to the console output —
// that file is CI's BENCH_kernels.json perf artifact.
int main(int argc, char** argv) {
  std::vector<std::string> own;
  std::vector<char*> gbench_args;
  gbench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark", 0) == 0)
      gbench_args.push_back(argv[i]);
    else
      own.push_back(argv[i]);
  }

  std::string json_path;
  try {
    hgc::Args args{std::span<const std::string>(own)};
    json_path = args.get("json", "");
    args.check_unused();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n"
              << "usage: bench_micro_coding [--json out.json] "
                 "[--benchmark_* flags]\n";
    return 2;
  }

  // --json is sugar for google-benchmark's own file reporter flags, so the
  // console table and the JSON artifact come out of one run.
  std::string out_flag = "--benchmark_out=" + json_path;
  std::string format_flag = "--benchmark_out_format=json";
  if (!json_path.empty()) {
    gbench_args.push_back(out_flag.data());
    gbench_args.push_back(format_flag.data());
  }

  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                             gbench_args.data()))
    return 1;
  // Stamp the report (console + JSON context) with the kernel backend that
  // served the run: check_bench_floor.py matches `@backend`-suffixed floor
  // keys against this, so scalar and SIMD legs keep separate baselines.
  benchmark::AddCustomContext(
      "hgc_kernel_backend",
      hgc::kernels::backend_name(hgc::kernels::active_backend()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
