// The experiment driver: the one per-iteration loop behind every sweep cell.
// It builds a scheme from (possibly noisy) throughput estimates, replays
// many iterations under a straggler model composed with a ScenarioScript
// (churn, spliced delay trace, drift, correlated bursts; empty = static),
// and aggregates the metrics the paper's figures report. Fairness contract:
// when comparing schemes, every scheme sees the *same* per-iteration
// conditions (same victims, same fluctuations), achieved by drawing
// conditions from a dedicated RNG stream (condition_stream) reset per
// scheme, or by replaying one ConditionTape drawn from it. An optional
// RoundHook sees every round and may rebuild the code: adaptive re-coding
// (sim/adaptive.hpp) and the coded BSP trainer (runtime/sim_trainer.hpp)
// are hooks on this loop.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/scheme_cache.hpp"
#include "core/scheme_factory.hpp"
#include "engine/round.hpp"
#include "engine/scenario.hpp"
#include "sim/iteration.hpp"
#include "util/stats.hpp"

namespace hgc {

/// Everything that defines one experiment cell (one bar/point in a figure).
struct ExperimentConfig {
  /// Partitions for heterogeneity-aware schemes; 0 = 2 × active workers,
  /// resolved again at every churn re-instantiation.
  std::size_t k = 0;
  std::size_t s = 1;  ///< provisioned straggler tolerance, every epoch
  StragglerModel model;
  /// Throughput-estimation error σ (Section V motivation); 0 = exact. Drawn
  /// afresh at every (re)build of the scheme.
  double estimation_sigma = 0.0;
  std::size_t iterations = 300;
  std::uint64_t seed = 42;
  SimParams sim;
  /// Shared, thread-safe scheme-construction cache; nullptr = construct
  /// from scratch. Result-transparent: the cache builds missing entries
  /// exactly like the uncached path (Rng(seed) into make_scheme). Runs whose
  /// script has churn events, and hooked runs, ignore it, because their
  /// rebuilds continue the construction stream instead of reseeding it.
  SchemeCache* scheme_cache = nullptr;
  /// Capacity of the per-run decoding-coefficient LRU (paper Section III-B
  /// "regular stragglers"); 0 disables it. The cache lives for the duration
  /// of one run_experiment call, so it is never shared across threads, and
  /// every churn re-instantiation rebuilds it.
  std::size_t decoding_cache_capacity = 0;
  /// Pre-drawn conditions; nullptr = draw them from condition_stream(seed)
  /// round by round. A tape drawn from that stream for this cluster's m,
  /// these iterations and this model's victim count and σ replays the same
  /// bytes, so cells that share all four can share one tape. Only runs
  /// whose script has no churn and no bursts accept one: churn changes m
  /// and burst draws interleave with the condition stream.
  const ConditionTape* condition_tape = nullptr;
};

/// The per-iteration condition stream of a run seeded with `seed`. Every
/// driver that replays a run's stragglers (run_experiment, the trainers, a
/// ConditionTape) starts from it, so all of them see the same conditions.
Rng condition_stream(std::uint64_t seed);

/// Aggregated outcome of an experiment cell for one scheme.
struct SchemeSummary {
  std::string scheme;
  RunningStats iteration_time;  ///< decoded iterations only
  RunningStats resource_usage;
  ReservoirQuantiles latency{1024};  ///< p50/p95/p99 of decoded rounds
  std::size_t failures = 0;     ///< iterations that could not decode
  std::size_t iterations = 0;
  /// Scheme rebuilds after churn or at a hook's request.
  std::size_t reinstantiations = 0;
  std::size_t bursts_started = 0;    ///< correlated bursts that fired
  /// Virtual time of the whole run: decoded rounds plus one give-up timeout
  /// per undecodable round.
  double total_time = 0.0;
  /// Active worker count per scheme epoch, initial epoch first.
  std::vector<std::size_t> epoch_sizes;

  double mean_time() const { return iteration_time.mean(); }
  bool ever_failed() const { return failures > 0; }
};

/// What run_experiment shows its RoundHook after each round.
struct RoundView {
  std::size_t iteration;                  ///< 0-based round index
  const IterationConditions& conditions;  ///< composed: model + script
  const CodingScheme& scheme;             ///< the code the round ran
  const engine::RoundOutcome& outcome;    ///< decoded or not
};

/// A per-round hook on run_experiment: it observes every round and may
/// steer the code. The default value is no hook.
struct RoundHook {
  /// Basis of the first build, used as is; empty = the cluster's
  /// throughputs under config.estimation_sigma noise.
  Throughputs initial_basis;
  /// Called after every round, decoded or not. A returned basis rebuilds
  /// the scheme from it before the next round (empty = the noisy truth);
  /// the rebuild counts in reinstantiations and continues the construction
  /// stream, as a churn rebuild does.
  std::function<std::optional<Throughputs>(const RoundView&)> after_round;
};

/// Run one scheme on `cluster` under `script` (default: the static
/// scenario). Time-keyed script effects (drift windows, burst expiry, churn)
/// follow the virtual clock; an undecodable round advances it by the
/// epoch's ideal iteration time (the master's give-up timeout) so a
/// faulting burst cannot freeze the clock and pin the run inside its own
/// window. All randomness derives from config.seed. A hooked run never
/// reads the shared scheme cache, because its hook may rebuild.
SchemeSummary run_experiment(SchemeKind kind, const Cluster& cluster,
                             const ExperimentConfig& config,
                             const engine::ScenarioScript& script = {},
                             const RoundHook& hook = {});

/// Run several schemes under identical per-iteration conditions.
std::vector<SchemeSummary> compare_schemes(
    const std::vector<SchemeKind>& kinds, const Cluster& cluster,
    const ExperimentConfig& config);

/// Resolve the partition-count default (k = 2m when config.k == 0) for `m`
/// active workers.
std::size_t resolve_partitions(const ExperimentConfig& config,
                               std::size_t num_workers);

/// Smallest k in [m, max_k] for which the Eq. 5 allocation is exactly
/// integral on this cluster (every worker's ideal share k(s+1)c_i/Σc is a
/// whole number), so heter-aware lands exactly on the Theorem 5 optimum.
/// Falls back to 2m when no such k exists in range. For Table II clusters
/// with s = 1 this returns Σc/2 (24, 58, 161, 324 for A–D).
std::size_t exact_partition_count(const Cluster& cluster, std::size_t s,
                                  std::size_t max_k = 2048);

}  // namespace hgc
