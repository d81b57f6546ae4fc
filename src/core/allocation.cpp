#include "core/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace hgc {

std::vector<std::size_t> proportional_counts(std::span<const double> weights,
                                             std::size_t total,
                                             std::size_t cap) {
  const std::size_t m = weights.size();
  HGC_REQUIRE(m > 0, "need at least one worker");
  HGC_REQUIRE(total <= cap * m, "total exceeds cap * workers");
  double weight_sum = 0.0;
  for (double w : weights) {
    HGC_REQUIRE(w >= 0.0 && std::isfinite(w), "weights must be finite, >= 0");
    weight_sum += w;
  }
  HGC_REQUIRE(weight_sum > 0.0, "at least one weight must be positive");

  std::vector<double> ideal(m);
  for (std::size_t i = 0; i < m; ++i)
    ideal[i] = static_cast<double>(total) * weights[i] / weight_sum;

  std::vector<std::size_t> counts(m);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < m; ++i) {
    counts[i] = std::min(static_cast<std::size_t>(std::floor(ideal[i])), cap);
    assigned += counts[i];
  }
  HGC_ASSERT(assigned <= total, "floor allocation overshot the total");

  // Hand out the remainder one unit at a time to the worker with the largest
  // unmet ideal share that still has cap headroom. Ties resolve to the lower
  // index, keeping the function deterministic. A max-heap keyed on
  // (deficit descending, index ascending) makes each pick O(log m): only the
  // picked worker's deficit changes, so it alone is re-keyed.
  using Entry = std::pair<double, std::size_t>;  // (deficit, worker)
  const auto deficit = [&](std::size_t i) {
    return ideal[i] - static_cast<double>(counts[i]);
  };
  const auto lower_priority = [](const Entry& a, const Entry& b) {
    return a.first < b.first || (a.first == b.first && a.second > b.second);
  };
  std::vector<Entry> heap;
  heap.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    if (counts[i] < cap) heap.emplace_back(deficit(i), i);
  std::make_heap(heap.begin(), heap.end(), lower_priority);
  for (std::size_t left = total - assigned; left > 0; --left) {
    HGC_ASSERT(!heap.empty(), "no worker with cap headroom left");
    std::pop_heap(heap.begin(), heap.end(), lower_priority);
    const std::size_t best = heap.back().second;
    heap.pop_back();
    if (++counts[best] < cap) {
      heap.emplace_back(deficit(best), best);
      std::push_heap(heap.begin(), heap.end(), lower_priority);
    }
  }
  return counts;
}

std::vector<std::size_t> heter_aware_counts(const Throughputs& c,
                                            std::size_t k, std::size_t s) {
  HGC_REQUIRE(k > 0, "need at least one partition");
  HGC_REQUIRE(s + 1 <= c.size(),
              "cannot tolerate s stragglers with m <= s workers");
  return proportional_counts(c, k * (s + 1), k);
}

Assignment cyclic_assignment(std::span<const std::size_t> counts,
                             std::size_t k) {
  HGC_REQUIRE(k > 0, "need at least one partition");
  std::size_t total = 0;
  for (std::size_t n : counts) {
    HGC_REQUIRE(n <= k,
                "a worker cannot hold more than k partitions (distinctness)");
    total += n;
  }
  HGC_REQUIRE(total % k == 0,
              "total copies must be a multiple of k for uniform replication");

  Assignment assignment(counts.size());
  std::size_t offset = 0;  // n'_i in the paper
  for (std::size_t w = 0; w < counts.size(); ++w) {
    auto& mine = assignment[w];
    mine.reserve(counts[w]);
    for (std::size_t t = 0; t < counts[w]; ++t)
      mine.push_back((offset + t) % k);
    std::sort(mine.begin(), mine.end());
    offset += counts[w];
  }
  return assignment;
}

Assignment cyclic_scheme_assignment(std::size_t m, std::size_t s) {
  HGC_REQUIRE(s < m, "cyclic scheme requires s < m");
  const std::vector<std::size_t> counts(m, s + 1);
  return cyclic_assignment(counts, m);
}

std::vector<std::size_t> replication_profile(const Assignment& assignment,
                                             std::size_t k) {
  std::vector<std::size_t> copies(k, 0);
  for (const auto& partitions : assignment)
    for (PartitionId p : partitions) {
      HGC_REQUIRE(p < k, "partition id out of range");
      ++copies[p];
    }
  return copies;
}

bool is_valid_allocation(const Assignment& assignment, std::size_t k,
                         std::size_t s) {
  // Distinctness within each worker (each partition at most once per worker).
  for (const auto& partitions : assignment) {
    for (std::size_t i = 1; i < partitions.size(); ++i)
      if (partitions[i] == partitions[i - 1]) return false;
  }
  const auto copies = replication_profile(assignment, k);
  return std::all_of(copies.begin(), copies.end(),
                     [&](std::size_t c) { return c == s + 1; });
}

}  // namespace hgc
