// Verification utilities: Condition 1 (Lemma 1), worst-case iteration time
// T(B) (Eq. 3), and the optimal bound of Theorem 5. These power the test
// suite's brute-force sweeps and the benches' analytic cross-checks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>

#include "core/coding_scheme.hpp"
#include "core/decoding_cache.hpp"
#include "core/types.hpp"
#include "linalg/sparse.hpp"
#include "util/rng.hpp"

namespace hgc {

/// C(m, s), saturating at `cap` — the cheap "is exact enumeration feasible?"
/// probe behind sample_straggler_patterns' auto-selection.
std::size_t count_straggler_patterns(std::size_t m, std::size_t s,
                                     std::size_t cap);

/// Brute-force Condition 1: every (m−s)-subset of rows spans the all-ones
/// vector (ones_in_row_span). Exponential in m — intended for test-sized
/// instances; callers should keep C(m, s) under ~10⁶. The survivor list,
/// the pattern buffer and the solve workspace are per-thread and reused
/// across the whole enumeration: after one warm-up call per shape the check
/// performs zero heap allocations (pinned by test_kernels' instrumented
/// allocator).
bool satisfies_condition1(const SparseRowMatrix& b, std::size_t s);

/// Visit every straggler pattern with exactly `s` stragglers; the callback
/// receives the sorted straggler set (the caller-provided scratch buffer,
/// reused between patterns). Returns false if the callback ever returned
/// false (early exit), true otherwise.
template <typename Visit>
bool for_each_straggler_pattern(std::size_t m, std::size_t s, Visit&& visit,
                                StragglerSet& pattern) {
  HGC_REQUIRE(s <= m, "cannot choose more stragglers than workers");
  pattern.resize(s);
  // Lexicographic enumeration of all C(m, s) subsets.
  std::iota(pattern.begin(), pattern.end(), 0);
  if (s == 0) return static_cast<bool>(visit(std::as_const(pattern)));
  while (true) {
    if (!visit(std::as_const(pattern))) return false;
    // Advance to the next combination.
    std::size_t i = s;
    while (i-- > 0) {
      if (pattern[i] != i + m - s) {
        ++pattern[i];
        for (std::size_t j = i + 1; j < s; ++j)
          pattern[j] = pattern[j - 1] + 1;
        break;
      }
      if (i == 0) return true;  // wrapped: enumeration complete
    }
  }
}

/// Convenience overload owning its pattern buffer (one allocation).
template <typename Visit>
bool for_each_straggler_pattern(std::size_t m, std::size_t s, Visit&& visit) {
  StragglerSet pattern;
  return for_each_straggler_pattern(m, s, std::forward<Visit>(visit),
                                    pattern);
}

/// Seeded, deterministic sibling of for_each_straggler_pattern for instances
/// where C(m, s) is astronomical (10k-worker clusters). When
/// C(m, s) <= max_patterns the EXACT lexicographic enumeration runs (same
/// visit order as for_each_straggler_pattern, seed unused); otherwise
/// exactly `max_patterns` patterns are drawn from Rng(seed).
///
/// The sampled RNG stream is part of the function's contract: pattern i
/// consumes exactly s uniform_int draws — Floyd's algorithm over
/// j = m−s … m−1, inserting uniform_int(0, j) (or j itself on collision) —
/// and the visited pattern is sorted ascending. Duplicate patterns across
/// draws are possible and intentional (unbiased estimation); callbacks see
/// the same reused scratch buffer semantics as the exact enumeration.
/// Returns false iff the callback ever returned false (early exit).
template <typename Visit>
bool sample_straggler_patterns(std::size_t m, std::size_t s,
                               std::size_t max_patterns, std::uint64_t seed,
                               Visit&& visit, StragglerSet& pattern) {
  HGC_REQUIRE(s <= m, "cannot choose more stragglers than workers");
  HGC_REQUIRE(max_patterns > 0, "need a positive pattern budget");
  if (count_straggler_patterns(m, s, max_patterns + 1) <= max_patterns)
    return for_each_straggler_pattern(m, s, std::forward<Visit>(visit),
                                      pattern);
  Rng rng(seed);
  pattern.clear();
  pattern.reserve(s);
  for (std::size_t draw = 0; draw < max_patterns; ++draw) {
    pattern.clear();
    // Floyd's algorithm: uniform over s-subsets in exactly s draws.
    for (std::size_t j = m - s; j < m; ++j) {
      const auto t = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(j)));
      if (std::find(pattern.begin(), pattern.end(), t) != pattern.end())
        pattern.push_back(j);
      else
        pattern.push_back(t);
    }
    std::sort(pattern.begin(), pattern.end());
    if (!visit(std::as_const(pattern))) return false;
  }
  return true;
}

/// Convenience overload owning its pattern buffer (one allocation).
template <typename Visit>
bool sample_straggler_patterns(std::size_t m, std::size_t s,
                               std::size_t max_patterns, std::uint64_t seed,
                               Visit&& visit) {
  StragglerSet pattern;
  return sample_straggler_patterns(m, s, max_patterns, seed,
                                   std::forward<Visit>(visit), pattern);
}

/// Completion time of the whole task for a given straggler pattern
/// (Section III-C): the master takes results in the order of worker finish
/// times t_i = ||b_i||_0 / c_i, skipping stragglers, and stops at the first
/// decodable prefix. Returns the stop time, or nullopt if the survivors
/// cannot decode at all. `cache`, when non-null, must wrap `scheme`; prefix
/// decodability checks then hit its LRU, which pays off when the same
/// arrival prefixes recur (repeated calls, the worst_case_time enumeration).
std::optional<double> completion_time(const CodingScheme& scheme,
                                      const Throughputs& c,
                                      const StragglerSet& stragglers,
                                      DecodingCache* cache = nullptr);

/// Worst-case completion time T(B) over all patterns with at most s
/// stragglers (Eq. 3), evaluated by brute force. Nullopt if some pattern is
/// undecodable (the scheme is not robust). The optional `cache` is shared
/// across the whole C(m, s) enumeration, where arrival prefixes overlap
/// heavily between patterns.
std::optional<double> worst_case_time(const CodingScheme& scheme,
                                      const Throughputs& c,
                                      DecodingCache* cache = nullptr);

/// What a sampled robustness probe saw. `worst_time` is exact when
/// `exhaustive`, otherwise a lower bound on T(B) (sampling can only miss
/// bad patterns, never invent them).
struct RobustnessEstimate {
  std::size_t patterns_checked = 0;
  std::size_t undecodable = 0;   ///< patterns whose survivors cannot decode
  double worst_time = 0.0;       ///< max completion time over decodable ones
  bool exhaustive = false;       ///< true when all C(m,s)+1 patterns ran
};

/// Sampled sibling of worst_case_time: checks the zero-straggler pattern
/// plus (up to) `max_patterns` exact-s patterns via
/// sample_straggler_patterns(seed). Unlike worst_case_time it never early-
/// exits — undecodable patterns are counted, making the result a robustness
/// *estimate* usable at 10k-worker scale where C(m, s) is astronomical.
RobustnessEstimate estimate_worst_case_time(const CodingScheme& scheme,
                                            const Throughputs& c,
                                            std::size_t max_patterns,
                                            std::uint64_t seed,
                                            DecodingCache* cache = nullptr);

/// Theorem 5's lower bound for any s-tolerant code on workers c:
/// (s+1)·k / Σc.
double optimal_time_bound(const Throughputs& c, std::size_t k, std::size_t s);

}  // namespace hgc
