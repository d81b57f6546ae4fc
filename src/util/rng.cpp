#include "util/rng.hpp"

#include <algorithm>
#include <utility>

namespace hgc {

double Rng::truncated_normal(double mean, double stddev, double lo,
                             double hi) {
  HGC_REQUIRE(lo <= hi, "truncated_normal bounds must satisfy lo <= hi");
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double x = normal(mean, stddev);
    if (x >= lo && x <= hi) return x;
  }
  return std::clamp(mean, lo, hi);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t count) {
  HGC_REQUIRE(count <= n, "cannot sample more elements than the population");
  // Partial Fisher-Yates over the virtual pool 0..n-1, exactly uniform. Only
  // the positions a swap touched are stored (position, value), so memory is
  // O(count) and time O(count²) however large n is: n is a worker count
  // (up to 10,000 per round), count a straggler count (a few).
  std::vector<std::pair<std::size_t, std::size_t>> touched;
  touched.reserve(2 * count);  // at most two per swap: no reallocation
  const auto pool = [&](std::size_t position) -> std::size_t& {
    for (auto& [p, value] : touched)
      if (p == position) return value;
    return touched.emplace_back(position, position).second;
  };
  std::vector<std::size_t> sample(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n) - 1));
    std::size_t& at_i = pool(i);
    std::swap(at_i, pool(j));
    sample[i] = at_i;
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}

}  // namespace hgc
