#include "core/robustness.hpp"

#include <algorithm>
#include <numeric>

#include "core/decoder.hpp"
#include "util/error.hpp"

namespace hgc {

std::size_t count_straggler_patterns(std::size_t m, std::size_t s,
                                     std::size_t cap) {
  HGC_REQUIRE(s <= m, "cannot choose more stragglers than workers");
  const std::size_t r = std::min(s, m - s);
  // Multiplicative formula with exact intermediate division; 128-bit
  // intermediates cannot overflow because n is capped each step.
  unsigned __int128 n = 1;
  for (std::size_t i = 1; i <= r; ++i) {
    n = n * (m - r + i) / i;
    if (n >= cap) return cap;
  }
  return static_cast<std::size_t>(n);
}

bool satisfies_condition1(const SparseRowMatrix& b, std::size_t s) {
  const std::size_t m = b.rows();
  HGC_REQUIRE(s < m, "condition 1 needs s < m");
  // Equivalent formulation: for every straggler pattern of exactly s
  // workers, the surviving rows span the ones vector.
  thread_local std::vector<std::size_t> survivors;
  thread_local StragglerSet pattern;
  return for_each_straggler_pattern(
      m, s,
      [&](const StragglerSet& stragglers) {
        survivors.clear();
        std::size_t next = 0;
        for (std::size_t worker = 0; worker < m; ++worker) {
          if (next < stragglers.size() && stragglers[next] == worker)
            ++next;
          else
            survivors.push_back(worker);
        }
        return ones_in_row_span(b, survivors);
      },
      pattern);
}

std::optional<double> completion_time(const CodingScheme& scheme,
                                      const Throughputs& c,
                                      const StragglerSet& stragglers,
                                      DecodingCache* cache) {
  const std::size_t m = scheme.num_workers();
  HGC_REQUIRE(c.size() == m, "one throughput per worker");

  std::vector<bool> straggles(m, false);
  for (WorkerId w : stragglers) {
    HGC_REQUIRE(w < m, "straggler id out of range");
    straggles[w] = true;
  }

  // Finish times of surviving workers that actually hold data; the paper's
  // full-straggler assumption means stragglers never arrive.
  std::vector<Arrival> arrivals;
  for (std::size_t w = 0; w < m; ++w) {
    if (straggles[w] || scheme.load(w) == 0) continue;
    HGC_REQUIRE(c[w] > 0.0, "non-straggler throughput must be positive");
    arrivals.emplace_back(static_cast<double>(scheme.load(w)) / c[w], w);
  }

  const DecodablePrefix prefix =
      first_decodable_prefix(scheme, arrivals, cache);
  if (!prefix.decisive) return std::nullopt;
  return prefix.decisive->first;
}

std::optional<double> worst_case_time(const CodingScheme& scheme,
                                      const Throughputs& c,
                                      DecodingCache* cache) {
  const std::size_t s = scheme.stragglers_tolerated();
  double worst = 0.0;
  // Patterns with fewer than s stragglers are dominated by some s-pattern
  // (removing a straggler can only speed decoding up), so exact-s suffices;
  // we still include the zero-straggler case to cover s = 0 schemes.
  const auto none = completion_time(scheme, c, {}, cache);
  if (!none) return std::nullopt;
  worst = *none;

  const bool ok = for_each_straggler_pattern(
      scheme.num_workers(), s, [&](const StragglerSet& pattern) {
        const auto t = completion_time(scheme, c, pattern, cache);
        if (!t) return false;
        worst = std::max(worst, *t);
        return true;
      });
  if (!ok) return std::nullopt;
  return worst;
}

RobustnessEstimate estimate_worst_case_time(const CodingScheme& scheme,
                                            const Throughputs& c,
                                            std::size_t max_patterns,
                                            std::uint64_t seed,
                                            DecodingCache* cache) {
  const std::size_t m = scheme.num_workers();
  const std::size_t s = scheme.stragglers_tolerated();
  RobustnessEstimate estimate;
  estimate.exhaustive =
      count_straggler_patterns(m, s, max_patterns + 1) <= max_patterns;

  const auto check = [&](const StragglerSet& pattern) {
    ++estimate.patterns_checked;
    const auto t = completion_time(scheme, c, pattern, cache);
    if (t)
      estimate.worst_time = std::max(estimate.worst_time, *t);
    else
      ++estimate.undecodable;
    return true;  // never early-exit: we are estimating, not certifying
  };
  check({});  // zero-straggler baseline, covering s = 0 schemes
  sample_straggler_patterns(m, s, max_patterns, seed, check);
  return estimate;
}

double optimal_time_bound(const Throughputs& c, std::size_t k, std::size_t s) {
  // lint:allow(raw-fp-accumulation): fixed begin->end order over per-cluster throughputs; analytic bound, not decode
  const double total = std::accumulate(c.begin(), c.end(), 0.0);
  HGC_REQUIRE(total > 0.0, "total throughput must be positive");
  return static_cast<double>((s + 1) * k) / total;
}

}  // namespace hgc
