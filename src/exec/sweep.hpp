// Declarative parallel experiment sweeps.
//
// The paper's evaluation is a grid: scheme × cluster × straggler model ×
// estimation error × seed (× scenario). A SweepGrid declares the axes once;
// expand() takes the cartesian product into independent Cells; run_sweep()
// executes the cells on a work-stealing ThreadPool and assembles a
// ResultTable.
//
// Determinism contract: results are bit-identical at ANY thread count
// (including 1). Three rules make that hold:
//   1. every cell's randomness derives from its own config — the built-in
//      cell bodies reseed from the seed axis; custom bodies needing
//      auxiliary randomness use Cell::forked_seed, assigned from root_seed
//      at expansion time in cell-index order, before anything runs;
//   2. a cell writes only to its pre-assigned results slot;
//   3. the table is assembled serially in cell-index order after the pool
//      drains — cross-cell aggregation (aggregate_over) happens there, never
//      concurrently.
// The cells' decode solves keep one solve workspace per thread
// (thread_local in the hot paths), so each pool worker reuses its own
// factor/scratch buffers across cells — allocation-free steady-state
// without any sharing. Workspace state never influences
// results (every factor fully overwrites it), so rule 1 is unaffected.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/scheme_cache.hpp"
#include "core/scheme_factory.hpp"
#include "engine/delay_trace.hpp"
#include "engine/scenario.hpp"
#include "exec/result_table.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"

namespace hgc::exec {

/// Sentinel: a StragglerAxis whose victim count follows the cell's s value.
inline constexpr std::size_t kMatchS = static_cast<std::size_t>(-1);

/// One point on the straggler-model axis. Delays are declared relative to
/// the balanced optimum so one axis serves every cluster and s value:
/// resolved delay = delay_seconds + delay_factor · ideal_iteration_time.
struct StragglerAxis {
  std::string label;        ///< axis value in the table; "" = auto-generated
  std::size_t num_stragglers = kMatchS;
  double delay_factor = 0.0;   ///< × ideal_iteration_time(cluster, s)
  double delay_seconds = 0.0;  ///< absolute seconds, added on top
  bool fault = false;
  double fluctuation_sigma = 0.0;

  std::string name() const;  ///< label, or an auto-description of the knobs
};

/// Which scenario a cell runs; every kind is a ScenarioScript run by
/// sim::run_experiment, and the kind picks the columns the row reports.
enum class ScenarioKind { kStatic, kChurn, kTraceReplay, kScript };

/// One point on the scenario axis.
struct ScenarioSpec {
  std::string name = "static";
  ScenarioKind kind = ScenarioKind::kStatic;
  /// kChurn: membership events, sorted by time.
  std::vector<engine::ChurnEvent> churn_events;
  /// kTraceReplay: recorded per-worker delays (columns must match the
  /// cluster the cell runs on).
  engine::DelayTrace trace;
  /// kScript: a compiled operator-authored scenario (churn + drift +
  /// correlated bursts + trace splice), usually from a DSL file. Its
  /// declared worker count must match the cluster the cell runs on.
  engine::ScenarioScript script;
};

/// A caller-defined numeric axis, exposed to custom cell functions (message
/// drop probability, layer count, transfer ratio, ...).
struct CustomAxis {
  std::string name;
  std::vector<double> values;
  /// Optional display labels, parallel to values; empty = numeric.
  std::vector<std::string> labels;
};

/// The declarative grid. Every vector is one axis of the cartesian product;
/// single-element axes are fixed parameters and stay out of the row axes.
struct SweepGrid {
  std::vector<Cluster> clusters = {cluster_a()};
  std::vector<SchemeKind> schemes = paper_schemes();
  std::vector<std::size_t> s_values = {1};
  /// Partition counts; 0 = exact_partition_count(cluster, s) for static
  /// cells (the figures' choice) and "scheme default" for scenario cells.
  std::vector<std::size_t> k_values = {0};
  std::vector<StragglerAxis> models = {{}};
  std::vector<double> sigmas = {0.0};      ///< estimation error σ
  std::vector<std::uint64_t> seeds = {42};
  std::vector<ScenarioSpec> scenarios = {{}};
  std::vector<CustomAxis> custom_axes;

  std::size_t iterations = 300;
  SimParams sim;
  /// Root of the per-cell forked RNG streams (auxiliary randomness for
  /// custom cell functions; the experiment itself reseeds from the seed
  /// axis).
  std::uint64_t root_seed = 0x5eed;

  std::size_t num_cells() const;
};

/// One expanded cell: resolved config plus its coordinates in the grid.
/// Holds a pointer into the grid's clusters — the grid must outlive it.
struct Cell {
  std::size_t index = 0;  ///< row order; also the results slot
  const Cluster* cluster = nullptr;
  SchemeKind scheme = SchemeKind::kNaive;
  std::size_t scenario_index = 0;
  /// Fully resolved experiment parameters (k, model delays, sigma, seed).
  ExperimentConfig experiment;
  /// Custom-axis values for this cell, one per grid.custom_axes entry.
  std::vector<double> custom;
  /// Deterministic per-cell seed forked from grid.root_seed, for custom
  /// cell bodies that need randomness beyond the seed axis (the built-in
  /// bodies and the figure presets reseed from experiment.seed instead).
  std::uint64_t forked_seed = 0;
  /// Precomputed (axis, value) coordinates for the result row.
  std::vector<std::pair<std::string, std::string>> axes;
};

/// What a cell reports back; everything lands in the cell's ResultRow.
struct CellResult {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, RunningStats>> stats;
  std::vector<std::pair<std::string, ReservoirQuantiles>> quantiles;
  std::string note;  ///< "fail" / error text; empty = healthy
};

/// A cell body. Must be safe to call concurrently with itself on different
/// cells (capture shared inputs by const reference only).
using CellFn = std::function<CellResult(const Cell&)>;

struct SweepOptions {
  std::size_t threads = 0;  ///< 0 = ThreadPool::default_threads()
  /// Shared scheme-construction cache (thread-safe; cells differing only in
  /// axes the construction ignores reuse one scheme). nullptr = off.
  SchemeCache* scheme_cache = nullptr;
  /// Per-cell decoding-coefficient LRU capacity; 0 = off. Each cell owns its
  /// cache, keeping cells race-free at any thread count.
  std::size_t decoding_cache_capacity = 0;
  /// When non-null, run_sweep fills this with a merged obs::Registry
  /// snapshot after the pool drains — cache hit/miss counters, decode-solve
  /// totals, per-cell timing stats. Out of band by construction: the
  /// snapshot never feeds back into the ResultTable, so instrumented and
  /// uninstrumented runs emit identical bytes. (Counters are process-wide
  /// and cumulative; callers wanting per-sweep deltas reset the registry
  /// before the run.)
  obs::Snapshot* metrics_snapshot = nullptr;
  /// > 0 runs an obs::Recorder for the duration of the sweep, sampling the
  /// registry every interval on a background thread into metrics_log
  /// (run_sweep throws if it is unset). Read-only against the registry, so
  /// the ResultTable stays byte-identical with it on or off.
  double metrics_interval_seconds = 0.0;
  /// The recorder's sink: one compact snapshot JSON per line (JSONL),
  /// appended at every sample. Not owned.
  std::ostream* metrics_log = nullptr;
};

/// Expand the grid into cells (cartesian product, deterministic order:
/// cluster, scenario, s, k, sigma, model, custom axes, seed, scheme — scheme
/// varies fastest so adjacent rows compare schemes).
std::vector<Cell> expand(const SweepGrid& grid);

/// Run every cell of `grid` through `fn` on `opts.threads` workers.
/// Exceptions inside a cell are caught and reported in the row's note.
ResultTable run_sweep(const SweepGrid& grid, const CellFn& fn,
                      const SweepOptions& opts = {});

/// run_sweep with the built-in cell body: every cell maps its scenario to
/// an engine::ScenarioScript (static = empty, churn = events, trace replay =
/// a splice that wraps forever, script = as compiled) and runs it once
/// through sim::run_experiment on top of the cell's straggler model and
/// estimation error. The scenario kind only picks the row's columns:
/// kStatic → stats time, usage; metrics failures; "fail" note when any
/// iteration was undecodable. The engine kinds → stats time; quantiles
/// latency; metrics failures, reinstantiations (not kTraceReplay), bursts
/// (kScript only), total_time.
///
/// Cells whose conditions are provably identical form a draw group: same
/// cluster, resolved victim count, fluctuation σ, seed and iterations, and
/// a script with no churn and no bursts. A group's pool task draws its
/// ConditionTape once, then queues each member as a task of its own that
/// replays the tape, so the schemes of a group compare under the same
/// stragglers by construction, its cells still run in parallel, and the
/// bytes equal one run_experiment call per cell. Other cells, and cells
/// whose tape would pass a fixed byte budget, draw their own conditions.
ResultTable run_sweep(const SweepGrid& grid, const SweepOptions& opts = {});

}  // namespace hgc::exec
