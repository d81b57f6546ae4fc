#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "engine/link.hpp"
#include "engine/round.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace hgc {
namespace {

/// Roster entry: stable id + hardware.
struct RosterEntry {
  std::size_t id;
  WorkerSpec spec;
};

/// position_of's answer for a worker that is not (or no longer) active.
constexpr std::size_t kGone = static_cast<std::size_t>(-1);

}  // namespace

Rng condition_stream(std::uint64_t seed) { return Rng(seed + 0x79b9); }

std::size_t resolve_partitions(const ExperimentConfig& config,
                               std::size_t num_workers) {
  return config.k == 0 ? 2 * num_workers : config.k;
}

std::size_t exact_partition_count(const Cluster& cluster, std::size_t s,
                                  std::size_t max_k) {
  const Throughputs c = cluster.throughputs();
  const double total = cluster.total_throughput();
  for (std::size_t k = cluster.size(); k <= max_k; ++k) {
    bool integral = true;
    for (double ci : c) {
      const double share =
          static_cast<double>(k * (s + 1)) * ci / total;
      if (std::abs(share - std::round(share)) > 1e-9 ||
          share > static_cast<double>(k) + 1e-9) {
        integral = false;
        break;
      }
    }
    if (integral) return k;
  }
  return 2 * cluster.size();
}

SchemeSummary run_experiment(SchemeKind kind, const Cluster& cluster,
                             const ExperimentConfig& config,
                             const engine::ScenarioScript& script,
                             const RoundHook& hook) {
  HGC_REQUIRE(config.iterations > 0, "need at least one iteration");
  HGC_REQUIRE(script.workers == 0 || script.workers == cluster.size(),
              "scenario script declares " + std::to_string(script.workers) +
                  " workers but the cluster has " +
                  std::to_string(cluster.size()));
  HGC_REQUIRE(std::is_sorted(script.churn.begin(), script.churn.end(),
                             [](const engine::ChurnEvent& a,
                                const engine::ChurnEvent& b) {
                               return a.time < b.time;
                             }),
              "churn events must be sorted by time");
  const ConditionTape* const tape = config.condition_tape;
  if (tape) {
    HGC_REQUIRE(script.churn.empty() && script.bursts.empty(),
                "a condition tape needs a script without churn or bursts");
  }
  const std::size_t splice_rows = script.splice.num_iterations();
  HGC_REQUIRE(splice_rows == 0 ||
                  script.splice.num_workers() == cluster.size(),
              "spliced trace must have one column per initial worker");

  // Stable roster ids: scripted effects name them, conditions are
  // positional. Joins take the next id.
  std::vector<RosterEntry> roster;
  roster.reserve(cluster.size());
  for (std::size_t id = 0; id < cluster.size(); ++id)
    roster.push_back({id, cluster.worker(id)});
  std::size_t next_stable_id = cluster.size();
  const auto position_of = [&](std::size_t id) -> std::size_t {
    for (std::size_t p = 0; p < roster.size(); ++p)
      if (roster[p].id == id) return p;
    return kGone;
  };

  // Three independent, seed-derived streams so that (a) per-iteration
  // conditions are identical across schemes, (b) construction randomness and
  // estimation noise do not perturb the condition stream. Rebuilds after
  // churn or at a hook's request continue the construction stream, so only
  // churn-free, unhooked runs may share schemes: there construction is a
  // pure function of the cache key, which keeps cached and uncached runs
  // byte-identical.
  Rng construction_rng(config.seed);
  Rng estimation_rng(config.seed + 0x9e37);
  Rng condition_rng = condition_stream(config.seed);
  SchemeCache* const scheme_cache =
      script.churn.empty() && !hook.after_round && hook.initial_basis.empty()
          ? config.scheme_cache
          : nullptr;

  SchemeSummary summary;
  summary.iterations = config.iterations;
  const Cluster* active = &cluster;
  std::optional<Cluster> churned;  // membership after the latest churn
  std::shared_ptr<const CodingScheme> scheme;
  // The decoding cache keys on the scheme's receive patterns, so every
  // re-instantiation invalidates it wholesale.
  std::optional<DecodingCache> decoding_cache;
  double clock = 0.0;
  // Builds from `basis`, or from noisy estimates of the truth when empty.
  // Every build after the first is a re-instantiation.
  const auto rebuild = [&](Throughputs basis) {
    HGC_REQUIRE(script.churn.empty() || active->size() >= config.s + 2,
                "churn left too few workers for tolerance s");
    decoding_cache.reset();  // it refers to the scheme being replaced
    if (basis.empty())
      basis = estimate_throughputs(active->throughputs(),
                                   config.estimation_sigma, estimation_rng);
    HGC_REQUIRE(basis.size() == active->size(),
                "hook basis must have one throughput per active worker");
    const std::size_t k = resolve_partitions(config, active->size());
    if (scheme) {
      ++summary.reinstantiations;
      if (obs::metrics_enabled()) {
        static const obs::Counter reinstantiations =
            obs::Registry::global().counter("engine.reinstantiations");
        reinstantiations.add();
      }
      obs::trace_virtual_instant(config.sim.trace_track, 0, "reinstantiate",
                                 "scenario", clock,
                                 static_cast<std::int64_t>(roster.size()));
    }
    if (scheme_cache)
      scheme = scheme_cache->get_or_create(kind, basis, k, config.s,
                                           config.seed);
    else
      scheme = make_scheme(kind, basis, k, config.s, construction_rng);
    if (config.decoding_cache_capacity > 0)
      decoding_cache.emplace(*scheme, config.decoding_cache_capacity);
    summary.epoch_sizes.push_back(active->size());
  };
  rebuild(hook.initial_basis);
  summary.scheme = scheme->name();

  std::size_t next_event = 0;
  std::vector<double> burst_until(script.bursts.size(),
                                  -std::numeric_limits<double>::infinity());
  engine::FixedLatencyLink link(config.sim.comm_latency);
  engine::RoundOptions round_options;
  round_options.trace_track = config.sim.trace_track;
  IterationConditions conditions;  // every round overwrites it in place
  // Where the first round's own draw would check its arguments, so a bad
  // model reports the same error with or without a tape.
  if (tape)
    tape->require_matches(config.model, cluster.size(), config.iterations);

  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    // Apply every membership change that has come due, then re-instantiate
    // the scheme once — the master cannot decode a B matrix built for a
    // worker set that no longer exists.
    bool membership_changed = false;
    while (next_event < script.churn.size() &&
           script.churn[next_event].time <= clock) {
      const engine::ChurnEvent& event = script.churn[next_event++];
      if (event.join) {
        roster.push_back({next_stable_id++, event.spec});
      } else {
        const std::size_t p = position_of(event.worker);
        HGC_REQUIRE(p != kGone,
                    "churn leave names a worker not in the roster");
        roster.erase(roster.begin() + static_cast<std::ptrdiff_t>(p));
      }
      membership_changed = true;
    }
    if (membership_changed) {
      std::vector<WorkerSpec> specs;
      specs.reserve(roster.size());
      for (const RosterEntry& entry : roster) specs.push_back(entry.spec);
      churned.emplace("churn-epoch-" +
                          std::to_string(summary.reinstantiations + 1),
                      std::move(specs));
      active = &*churned;
      rebuild({});
    }

    if (tape)
      tape->replay(iter, config.model, conditions);
    else
      config.model.draw(active->size(), condition_rng, conditions);

    // Splice row: base per-worker delays recorded against the initial
    // roster (column = stable id; joined workers take none).
    if (splice_rows > 0 &&
        (script.splice_repeat == 0 ||
         iter < splice_rows * script.splice_repeat)) {
      const auto& row = script.splice.rows()[iter % splice_rows];
      for (std::size_t p = 0; p < roster.size(); ++p) {
        if (roster[p].id >= row.size()) continue;
        const double v = row[roster[p].id];
        if (v < 0.0)
          conditions.faulted[p] = true;
        else
          conditions.delay[p] += v;
      }
    }

    // Drift windows: scale speed factors by the ramp value at the current
    // virtual time.
    for (const engine::DriftWindow& drift : script.drifts) {
      const std::size_t p = position_of(drift.worker);
      if (p != kGone) conditions.speed_factor[p] *= drift.factor_at(clock);
    }

    // Correlated bursts: each idle process makes one Bernoulli draw per
    // iteration; active ones draw nothing until their window expires.
    for (std::size_t b = 0; b < script.bursts.size(); ++b) {
      const engine::CorrelatedStragglers& burst = script.bursts[b];
      if (clock >= burst_until[b] &&
          condition_rng.bernoulli(burst.probability)) {
        burst_until[b] = clock + burst.duration;
        ++summary.bursts_started;
        if (obs::metrics_enabled()) {
          static const obs::Counter bursts =
              obs::Registry::global().counter("engine.bursts");
          bursts.add();
        }
        obs::trace_virtual_instant(config.sim.trace_track, 0, "burst",
                                   "scenario", clock,
                                   static_cast<std::int64_t>(b));
      }
      if (clock >= burst_until[b]) continue;
      for (std::size_t id : burst.workers) {
        const std::size_t p = position_of(id);
        if (p == kGone) continue;
        if (burst.fault)
          conditions.faulted[p] = true;
        else
          conditions.delay[p] += burst.delay;
      }
    }

    round_options.decoding_cache =
        decoding_cache ? &*decoding_cache : nullptr;
    round_options.trace_time_base = clock;
    const engine::RoundOutcome round =
        engine::run_round(*scheme, *active, conditions, link, round_options);
    if (round.decoded) {
      clock += round.time;
      summary.iteration_time.add(round.time);
      summary.resource_usage.add(round.resource_usage);
      summary.latency.add(round.time);
    } else {
      ++summary.failures;
      // The master gives up after the epoch's ideal round time; without the
      // timeout a fault burst would freeze the clock inside its own window
      // and fail every remaining iteration.
      const double timeout = ideal_iteration_time(*active, config.s);
      if (obs::metrics_enabled()) {
        static const obs::Counter giveups =
            obs::Registry::global().counter("engine.giveups");
        giveups.add();
      }
      obs::trace_virtual_span(config.sim.trace_track, 0, "giveup",
                              "scenario", clock, timeout);
      clock += timeout;
    }
    if (!hook.after_round) continue;
    if (auto basis = hook.after_round({iter, conditions, *scheme, round}))
      rebuild(std::move(*basis));
  }

  summary.total_time = clock;
  return summary;
}

std::vector<SchemeSummary> compare_schemes(
    const std::vector<SchemeKind>& kinds, const Cluster& cluster,
    const ExperimentConfig& config) {
  std::vector<SchemeSummary> summaries;
  summaries.reserve(kinds.size());
  // run_experiment reseeds its streams from config.seed, so every scheme
  // replays the same straggler victims and fluctuations.
  for (SchemeKind kind : kinds)
    summaries.push_back(run_experiment(kind, cluster, config));
  return summaries;
}

}  // namespace hgc
