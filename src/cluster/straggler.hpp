// Straggler and noise injection (Section VI-A: "stragglers are created
// artificially by adding delay to the workers").
//
// Each simulated iteration draws an IterationConditions: a per-worker speed
// factor (transient resource fluctuation), an added delay, and a fail-stop
// flag. The three knobs map one-to-one to the paper's experimental handles:
//   * artificial delay on s random workers  (Fig. 2 x-axis)
//   * fail-stop faults ("delay = infinity") (Fig. 2 rightmost points)
//   * background fluctuation                (always on in real clusters)
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace hgc {

/// Per-iteration runtime conditions for every worker.
struct IterationConditions {
  std::vector<double> speed_factor;  ///< multiplies throughput; ≈1.0
  std::vector<double> delay;         ///< seconds added before the result sends
  std::vector<bool> faulted;         ///< fail-stop: result never arrives

  std::size_t size() const { return speed_factor.size(); }
};

/// Configuration for drawing iteration conditions.
struct StragglerModel {
  /// Number of workers hit by the artificial delay/fault each iteration,
  /// chosen uniformly at random (the paper delays "any s random workers").
  std::size_t num_stragglers = 0;
  /// Added delay in seconds for the chosen workers.
  double delay_seconds = 0.0;
  /// If true the chosen workers fail outright instead of being delayed.
  bool fault = false;
  /// Std-dev of the multiplicative throughput fluctuation applied to every
  /// worker every iteration (truncated to ±3σ, factor floored at 0.05).
  double fluctuation_sigma = 0.0;

  /// Draw conditions for one iteration into `cond`, resizing it to
  /// `num_workers` and reusing its buffers.
  void draw(std::size_t num_workers, Rng& rng, IterationConditions& cond) const;
  /// Draw conditions for one iteration.
  IterationConditions draw(std::size_t num_workers, Rng& rng) const;
};

/// The random parts of a run's conditions, drawn once: per iteration, every
/// worker's speed factor (stored only when σ > 0) and the ascending victim
/// list. Delay and fault are not on the tape; replay() applies them, so one
/// tape serves every model that shares m, the victim count and σ. The
/// tape consumes `rng` exactly as `iterations` successive
/// StragglerModel::draw calls do, through the same sampler.
class ConditionTape {
 public:
  ConditionTape(const StragglerModel& model, std::size_t num_workers,
                std::size_t iterations, Rng rng);

  /// Bytes a tape of these dimensions holds.
  static std::size_t bytes(const StragglerModel& model,
                           std::size_t num_workers, std::size_t iterations);

  /// Throws unless this tape can stand in for `model`'s own draws over
  /// `iterations` rounds of `num_workers` workers: the same dimensions,
  /// victim count and σ, and the arguments every draw checks.
  void require_matches(const StragglerModel& model, std::size_t num_workers,
                       std::size_t iterations) const;

  /// Iteration `iter`'s conditions under `model` into `cond`: the same
  /// values model.draw would have produced at that iteration. `model` must
  /// pass require_matches.
  void replay(std::size_t iter, const StragglerModel& model,
              IterationConditions& cond) const;

 private:
  std::size_t num_workers_;
  std::size_t iterations_;
  std::size_t num_stragglers_;
  double fluctuation_sigma_;
  std::vector<double> speed_factors_;  ///< iterations × m, or empty at σ = 0
  std::vector<std::size_t> victims_;   ///< iterations × num_stragglers
};

/// Throughput-estimation error model (Section V's motivation): the master
/// estimates worker speeds by sampling; estimates drift from the truth by a
/// multiplicative factor (1 + ε), ε ~ N(0, σ²) truncated to ±3σ, with the
/// result floored at 5% of the true value.
Throughputs estimate_throughputs(const Throughputs& truth, double sigma,
                                 Rng& rng);

}  // namespace hgc
