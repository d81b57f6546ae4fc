#include "cluster/straggler.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hgc {

namespace {

/// Every draw's argument checks, in one order, so a grouped cell fails with
/// the message its own draw would give.
void check(const StragglerModel& model, std::size_t num_workers) {
  HGC_REQUIRE(model.num_stragglers <= num_workers,
              "cannot delay more workers than exist");
  HGC_REQUIRE(model.delay_seconds >= 0.0, "delay must be non-negative");
  HGC_REQUIRE(model.fluctuation_sigma >= 0.0, "sigma must be non-negative");
}

/// The one sampler: the random part of one iteration. Writes every worker's
/// speed factor into `speed_factor` when σ > 0 (it is not touched at σ = 0)
/// and returns the ascending victims.
std::vector<std::size_t> draw_random(const StragglerModel& model,
                                     std::size_t num_workers, Rng& rng,
                                     std::span<double> speed_factor) {
  const double sigma = model.fluctuation_sigma;
  if (sigma > 0.0) {
    for (std::size_t w = 0; w < num_workers; ++w) {
      const double eps =
          rng.truncated_normal(0.0, sigma, -3.0 * sigma, 3.0 * sigma);
      speed_factor[w] = std::max(0.05, 1.0 + eps);
    }
  }
  if (model.num_stragglers == 0) return {};
  return rng.sample_without_replacement(num_workers, model.num_stragglers);
}

/// The deterministic part: resets delay and faults, then delays or fails
/// each victim.
void apply(const StragglerModel& model, std::span<const std::size_t> victims,
           IterationConditions& cond) {
  const std::size_t num_workers = cond.speed_factor.size();
  cond.delay.assign(num_workers, 0.0);
  cond.faulted.assign(num_workers, false);
  for (std::size_t w : victims) {
    if (model.fault)
      cond.faulted[w] = true;
    else
      cond.delay[w] += model.delay_seconds;
  }
}

}  // namespace

void StragglerModel::draw(std::size_t num_workers, Rng& rng,
                          IterationConditions& cond) const {
  check(*this, num_workers);
  cond.speed_factor.assign(num_workers, 1.0);
  const auto victims = draw_random(*this, num_workers, rng, cond.speed_factor);
  apply(*this, victims, cond);
}

IterationConditions StragglerModel::draw(std::size_t num_workers,
                                         Rng& rng) const {
  IterationConditions cond;
  draw(num_workers, rng, cond);
  return cond;
}

ConditionTape::ConditionTape(const StragglerModel& model,
                             std::size_t num_workers, std::size_t iterations,
                             Rng rng)
    : num_workers_(num_workers),
      iterations_(iterations),
      num_stragglers_(model.num_stragglers),
      fluctuation_sigma_(model.fluctuation_sigma) {
  check(model, num_workers);
  if (fluctuation_sigma_ > 0.0) speed_factors_.resize(iterations * num_workers);
  victims_.reserve(iterations * num_stragglers_);
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const std::span<double> row =
        fluctuation_sigma_ > 0.0
            ? std::span<double>(speed_factors_)
                  .subspan(iter * num_workers, num_workers)
            : std::span<double>();
    const auto victims = draw_random(model, num_workers, rng, row);
    victims_.insert(victims_.end(), victims.begin(), victims.end());
  }
}

std::size_t ConditionTape::bytes(const StragglerModel& model,
                                 std::size_t num_workers,
                                 std::size_t iterations) {
  const std::size_t speed =
      model.fluctuation_sigma > 0.0 ? num_workers * sizeof(double) : 0;
  return iterations * (speed + model.num_stragglers * sizeof(std::size_t));
}

void ConditionTape::require_matches(const StragglerModel& model,
                                    std::size_t num_workers,
                                    std::size_t iterations) const {
  HGC_REQUIRE(num_workers == num_workers_ && iterations == iterations_ &&
                  model.num_stragglers == num_stragglers_ &&
                  model.fluctuation_sigma == fluctuation_sigma_,
              "condition tape does not match the run's workers, iterations "
              "or straggler model");
  check(model, num_workers_);
}

void ConditionTape::replay(std::size_t iter, const StragglerModel& model,
                           IterationConditions& cond) const {
  HGC_REQUIRE(iter < iterations_, "iteration past the end of the tape");
  if (speed_factors_.empty()) {
    cond.speed_factor.assign(num_workers_, 1.0);
  } else {
    const auto row = speed_factors_.begin() +
                     static_cast<std::ptrdiff_t>(iter * num_workers_);
    cond.speed_factor.assign(row,
                             row + static_cast<std::ptrdiff_t>(num_workers_));
  }
  apply(model,
        std::span<const std::size_t>(victims_).subspan(
            iter * num_stragglers_, num_stragglers_),
        cond);
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
