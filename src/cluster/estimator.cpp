#include "cluster/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hgc {

ThroughputEstimator::ThroughputEstimator(Throughputs initial,
                                         double smoothing)
    : estimates_(std::move(initial)),
      counts_(estimates_.size(), 0),
      smoothing_(smoothing) {
  HGC_REQUIRE(!estimates_.empty(), "need at least one worker");
  HGC_REQUIRE(smoothing_ > 0.0 && smoothing_ <= 1.0,
              "smoothing must lie in (0, 1]");
  for (double e : estimates_)
    HGC_REQUIRE(e > 0.0, "initial estimates must be positive");
}

void ThroughputEstimator::observe(WorkerId w, double work_fraction,
                                  double seconds) {
  HGC_REQUIRE(w < estimates_.size(), "worker id out of range");
  if (!(work_fraction > 0.0) || !(seconds > 0.0) ||
      !std::isfinite(work_fraction) || !std::isfinite(seconds))
    return;  // faulted/idle workers yield no usable sample
  const double observed_rate = work_fraction / seconds;
  if (counts_[w] == 0) {
    estimates_[w] = observed_rate;  // first sample replaces the prior
  } else {
    estimates_[w] =
        smoothing_ * observed_rate + (1.0 - smoothing_) * estimates_[w];
  }
  ++counts_[w];
}

double ThroughputEstimator::relative_deviation(
    const Throughputs& other) const {
  HGC_REQUIRE(other.size() == estimates_.size(), "size mismatch");
  double worst = 0.0;
  for (std::size_t w = 0; w < estimates_.size(); ++w) {
    HGC_REQUIRE(other[w] > 0.0, "reference throughputs must be positive");
    worst = std::max(worst, std::abs(estimates_[w] - other[w]) / other[w]);
  }
  return worst;
}

}  // namespace hgc
