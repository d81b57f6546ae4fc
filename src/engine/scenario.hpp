// Scenario-script vocabulary: what a run can do to a cluster beyond the iid
// conditions of a StragglerModel.
//
// Real clusters misbehave in richer ways than iid stragglers. A
// ScenarioScript composes the ways this repo models into one value:
//
//   * Worker churn — workers leave and join mid-training. The master reacts
//     the only way gradient coding allows: it re-instantiates the coding
//     scheme over the surviving membership (a scheme's B matrix is bound to
//     a fixed worker set), repartitions, and carries on.
//
//   * A spliced delay trace — per-worker delays come from a recorded
//     DelayTrace, so a real cluster's straggler log can be replayed under
//     any coding scheme. The same trace row drives every scheme's round,
//     which keeps scheme comparisons exactly fair.
//
//   * Per-worker speed drift and correlated straggler bursts.
//
// Scripts are what the operator-authored text DSL (scenario/dsl.hpp)
// compiles to, so new failure narratives are data, not C++. One driver runs
// them all: sim::run_experiment (sim/experiment.hpp), where a static run is
// the empty script, a churn run sets only `churn`, and a trace replay sets
// only `splice` with `splice_repeat = 0`.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster.hpp"
#include "engine/delay_trace.hpp"

namespace hgc::engine {

/// One membership change. Workers carry stable roster ids: the initial
/// cluster's workers are 0..m0-1 and every join allocates the next id, so a
/// later leave can name exactly which worker departed.
struct ChurnEvent {
  double time = 0.0;       ///< virtual time at which the change takes effect
  bool join = false;       ///< false = leave
  std::size_t worker = 0;  ///< leave only: stable id of the departing worker
  WorkerSpec spec;         ///< join only: the new worker's hardware
};

/// A linear per-worker speed ramp (the DSL's `drift W speed a -> b over
/// [t0,t1]`). The named worker's speed factor is multiplied by `from`
/// before t0, by the linear interpolation inside [t0,t1], and by `to` from
/// t1 on — a machine heating up, a noisy neighbour moving in, a VM being
/// live-migrated to slower hardware.
struct DriftWindow {
  std::size_t worker = 0;  ///< stable roster id
  double from = 1.0;       ///< multiplier before the window
  double to = 1.0;         ///< multiplier after the window
  double t0 = 0.0;
  double t1 = 0.0;

  double factor_at(double time) const {
    if (time <= t0) return from;
    if (time >= t1) return to;
    const double alpha = (time - t0) / (t1 - t0);
    return from + alpha * (to - from);
  }
};

/// One correlated-straggler process (the DSL's `correlated stragglers {..}
/// p=.. dur=..`). Whenever no burst of this process is active, each
/// iteration starts one with probability `probability`; an active burst
/// delays (or fail-stops) every listed worker until `duration` virtual
/// seconds have passed — the whole rack stalls together, which iid
/// straggler models cannot express.
struct CorrelatedStragglers {
  std::vector<std::size_t> workers;  ///< stable roster ids, hit together
  double probability = 0.0;          ///< per-iteration burst start chance
  double duration = 0.0;             ///< burst length in virtual seconds
  double delay = 0.0;                ///< seconds added while active
  bool fault = false;                ///< fail-stop instead of delaying
};

/// A compiled scenario: everything the text DSL (scenario/dsl.hpp) can
/// express, in one runnable value. Conditions compose per iteration: the
/// run's StragglerModel draws the base, then the splice row adds its delays
/// (negative = fault), drift windows scale speed factors, and active bursts
/// add theirs on top. The default value is the static scenario.
struct ScenarioScript {
  /// Declared initial cluster size; the driver rejects a mismatched
  /// cluster. 0 = accept any (hand-built scripts only; the DSL always
  /// declares it).
  std::size_t workers = 0;
  std::vector<ChurnEvent> churn;  ///< must be sorted by time, ascending
  std::vector<DriftWindow> drifts;
  std::vector<CorrelatedStragglers> bursts;
  /// Optional base delays (column = stable worker id; workers joined after
  /// the start take no spliced delay). Empty = none.
  DelayTrace splice;
  /// Passes over the splice rows before they stop contributing; 0 = wrap
  /// forever.
  std::size_t splice_repeat = 1;
};

}  // namespace hgc::engine
