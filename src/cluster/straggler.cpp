#include "cluster/straggler.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hgc {

IterationConditions StragglerModel::draw(std::size_t num_workers,
                                         Rng& rng) const {
  HGC_REQUIRE(num_stragglers <= num_workers,
              "cannot delay more workers than exist");
  HGC_REQUIRE(delay_seconds >= 0.0, "delay must be non-negative");
  HGC_REQUIRE(fluctuation_sigma >= 0.0, "sigma must be non-negative");

  IterationConditions cond;
  cond.speed_factor.assign(num_workers, 1.0);
  cond.delay.assign(num_workers, 0.0);
  cond.faulted.assign(num_workers, false);

  if (fluctuation_sigma > 0.0) {
    for (std::size_t w = 0; w < num_workers; ++w) {
      const double eps = rng.truncated_normal(
          0.0, fluctuation_sigma, -3.0 * fluctuation_sigma,
          3.0 * fluctuation_sigma);
      cond.speed_factor[w] = std::max(0.05, 1.0 + eps);
    }
  }

  if (num_stragglers > 0) {
    const auto victims =
        rng.sample_without_replacement(num_workers, num_stragglers);
    for (std::size_t w : victims) {
      if (fault)
        cond.faulted[w] = true;
      else
        cond.delay[w] += delay_seconds;
    }
  }
  return cond;
}

Throughputs estimate_throughputs(const Throughputs& truth, double sigma,
                                 Rng& rng) {
  HGC_REQUIRE(sigma >= 0.0, "sigma must be non-negative");
  Throughputs estimated(truth.size());
  for (std::size_t w = 0; w < truth.size(); ++w) {
    HGC_REQUIRE(truth[w] > 0.0, "true throughput must be positive");
    const double eps =
        sigma > 0.0
            ? rng.truncated_normal(0.0, sigma, -3.0 * sigma, 3.0 * sigma)
            : 0.0;
    estimated[w] = std::max(0.05 * truth[w], truth[w] * (1.0 + eps));
  }
  return estimated;
}

}  // namespace hgc
