#include "sim/adaptive.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace hgc {

namespace {

/// Weight of the newest compute-time sample in the throughput EWMA.
constexpr double kEwmaSmoothing = 0.25;

}  // namespace

AdaptiveRecoder::AdaptiveRecoder(const AdaptivePolicy& policy,
                                 std::size_t num_workers)
    : policy_(policy),
      estimator_(policy.initial_estimates.empty()
                     ? Throughputs(num_workers, 1.0)
                     : policy.initial_estimates,
                 kEwmaSmoothing),
      basis_(estimator_.estimates()) {
  HGC_REQUIRE(basis_.size() == num_workers, "initial estimates size mismatch");
}

RoundHook AdaptiveRecoder::hook() {
  return {basis_, [this](const RoundView& round) { return after_round(round); }};
}

std::optional<Throughputs> AdaptiveRecoder::after_round(
    const RoundView& round) {
  const engine::RoundOutcome& outcome = round.outcome;
  const CodingScheme& scheme = round.scheme;
  HGC_REQUIRE(scheme.num_workers() == estimator_.num_workers(),
              "adaptive re-coding needs a fixed worker set");
  times_.push_back(outcome.decoded ? outcome.time
                                   : std::numeric_limits<double>::infinity());

  // Telemetry: observed compute durations update the estimator (workers
  // report their own compute time with the result / heartbeat).
  for (WorkerId w = 0; w < scheme.num_workers(); ++w) {
    const double seconds = outcome.compute_times[w];
    if (!std::isfinite(seconds)) continue;
    const double fraction = static_cast<double>(scheme.load(w)) /
                            static_cast<double>(scheme.num_partitions());
    estimator_.observe(w, fraction, seconds);
  }

  // Periodic re-code when the belief drifted enough.
  const bool check = policy_.recode_every > 0 &&
                     (round.iteration + 1) % policy_.recode_every == 0;
  if (!check ||
      !(estimator_.relative_deviation(basis_) > policy_.recode_threshold))
    return std::nullopt;
  basis_ = estimator_.estimates();
  return basis_;
}

double window_mean(const std::vector<double>& times, std::size_t begin,
                   std::size_t end) {
  HGC_REQUIRE(begin <= end && end <= times.size(), "window out of range");
  RunningStats stats;
  for (std::size_t i = begin; i < end; ++i)
    if (std::isfinite(times[i])) stats.add(times[i]);
  return stats.count() == 0 ? std::numeric_limits<double>::quiet_NaN()
                            : stats.mean();
}

}  // namespace hgc
