#include "exec/sweep.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "exec/thread_pool.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/iteration.hpp"
#include "util/checked_cast.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace hgc::exec {

std::string StragglerAxis::name() const {
  if (!label.empty()) return label;
  if (fault) return "fault";
  std::string out;
  if (delay_factor > 0.0) out = TablePrinter::num(delay_factor, 1) + "x ideal";
  if (delay_seconds > 0.0) {
    if (!out.empty()) out += " + ";
    out += TablePrinter::num(delay_seconds, 3) + "s";
  }
  if (out.empty())
    out = fluctuation_sigma > 0.0 ? "fluct only" : "none";
  return out;
}

std::size_t SweepGrid::num_cells() const {
  std::size_t n = clusters.size() * schemes.size() * s_values.size() *
                  k_values.size() * models.size() * sigmas.size() *
                  seeds.size() * scenarios.size();
  for (const CustomAxis& axis : custom_axes) n *= axis.values.size();
  return n;
}

namespace {

std::string custom_axis_label(const CustomAxis& axis, std::size_t i) {
  if (i < axis.labels.size()) return axis.labels[i];
  return ResultTable::format_double(axis.values[i]);
}

}  // namespace

std::vector<Cell> expand(const SweepGrid& grid) {
  HGC_REQUIRE(!grid.clusters.empty() && !grid.schemes.empty() &&
                  !grid.s_values.empty() && !grid.k_values.empty() &&
                  !grid.models.empty() && !grid.sigmas.empty() &&
                  !grid.seeds.empty() && !grid.scenarios.empty(),
              "every sweep axis needs at least one value");
  for (const CustomAxis& axis : grid.custom_axes)
    HGC_REQUIRE(!axis.values.empty(),
                "every custom axis needs at least one value");

  std::vector<Cell> cells;
  cells.reserve(grid.num_cells());
  // Odometer over the custom axes (empty = a single all-zeros setting).
  std::vector<std::size_t> custom_idx(grid.custom_axes.size(), 0);
  const auto advance_custom = [&]() -> bool {
    for (std::size_t i = custom_idx.size(); i-- > 0;) {
      if (++custom_idx[i] < grid.custom_axes[i].values.size()) return true;
      custom_idx[i] = 0;
    }
    return false;
  };

  for (std::size_t ci = 0; ci < grid.clusters.size(); ++ci) {
    const Cluster& cluster = grid.clusters[ci];
    for (std::size_t sci = 0; sci < grid.scenarios.size(); ++sci) {
      const ScenarioSpec& scenario = grid.scenarios[sci];
      for (std::size_t s : grid.s_values) {
        for (std::size_t k : grid.k_values) {
          for (double sigma : grid.sigmas) {
            for (const StragglerAxis& model : grid.models) {
              std::fill(custom_idx.begin(), custom_idx.end(), 0);
              do {
                for (std::uint64_t seed : grid.seeds) {
                  for (SchemeKind scheme : grid.schemes) {
                    Cell cell;
                    cell.index = cells.size();
                    cell.cluster = &cluster;
                    cell.scheme = scheme;
                    cell.scenario_index = sci;

                    ExperimentConfig& config = cell.experiment;
                    config.s = s;
                    // k = 0 means "the figures' exact partition count" for
                    // static cells; the other scenarios keep
                    // run_experiment's 0 (2 × active workers, per epoch).
                    config.k = (k == 0 && scenario.kind ==
                                              ScenarioKind::kStatic)
                                   ? exact_partition_count(cluster, s)
                                   : k;
                    config.model.num_stragglers =
                        model.num_stragglers == kMatchS ? s
                                                        : model.num_stragglers;
                    config.model.delay_seconds =
                        model.delay_seconds +
                        model.delay_factor * ideal_iteration_time(cluster, s);
                    config.model.fault = model.fault;
                    config.model.fluctuation_sigma = model.fluctuation_sigma;
                    config.estimation_sigma = sigma;
                    config.iterations = grid.iterations;
                    config.seed = seed;
                    config.sim = grid.sim;

                    cell.custom.reserve(custom_idx.size());
                    for (std::size_t i = 0; i < custom_idx.size(); ++i)
                      cell.custom.push_back(
                          grid.custom_axes[i].values[custom_idx[i]]);

                    // Row coordinates: single-valued axes are fixed
                    // parameters and stay out of the row key; cluster
                    // always identifies a row.
                    cell.axes.emplace_back("cluster", cluster.name());
                    if (grid.scenarios.size() > 1)
                      cell.axes.emplace_back("scenario", scenario.name);
                    if (grid.s_values.size() > 1)
                      cell.axes.emplace_back("s", std::to_string(s));
                    if (grid.k_values.size() > 1)
                      // k = 0 is the "exact partition count" sentinel; the
                      // resolved value varies per cluster and s, so label
                      // the axis honestly rather than "0".
                      cell.axes.emplace_back(
                          "k", k == 0 ? "auto" : std::to_string(k));
                    if (grid.sigmas.size() > 1)
                      cell.axes.emplace_back(
                          "sigma", ResultTable::format_double(sigma));
                    if (grid.models.size() > 1)
                      cell.axes.emplace_back("model", model.name());
                    for (std::size_t i = 0; i < custom_idx.size(); ++i)
                      cell.axes.emplace_back(
                          grid.custom_axes[i].name,
                          custom_axis_label(grid.custom_axes[i],
                                            custom_idx[i]));
                    if (grid.seeds.size() > 1)
                      cell.axes.emplace_back("seed", std::to_string(seed));
                    if (grid.schemes.size() > 1)
                      cell.axes.emplace_back("scheme", to_string(scheme));

                    cells.push_back(std::move(cell));
                  }
                }
              } while (advance_custom());
            }
          }
        }
      }
    }
  }

  // Fork the per-cell streams last, in index order, so the discipline is
  // independent of how the loops above evolve.
  Rng root(grid.root_seed);
  for (Cell& cell : cells) cell.forked_seed = root.fork().seed();
  return cells;
}

namespace {

/// The cell's virtual-clock trace track (cell.index + 1; track 0 means
/// "untracked"). Resolved once per cell body so a disabled tracer costs one
/// relaxed load per cell, not per round.
std::uint32_t cell_trace_track(const Cell& cell) {
  return obs::trace_enabled() ? checked_cast<std::uint32_t>(cell.index + 1)
                              : 0;
}

/// The script a scenario runs: static is the empty script, churn sets only
/// the membership events, and trace replay splices the trace forever.
engine::ScenarioScript script_of(const ScenarioSpec& scenario) {
  engine::ScenarioScript script;
  switch (scenario.kind) {
    case ScenarioKind::kStatic:
      break;
    case ScenarioKind::kChurn:
      script.churn = scenario.churn_events;
      break;
    case ScenarioKind::kTraceReplay:
      script.splice = scenario.trace;
      script.splice_repeat = 0;
      break;
    case ScenarioKind::kScript:
      script = scenario.script;
      break;
  }
  return script;
}

/// The built-in cell body. Every scenario runs through run_experiment; the
/// scenario kind only chooses which columns the row reports.
CellResult run_builtin_cell(const Cell& cell, ScenarioKind kind,
                            const engine::ScenarioScript& script,
                            const SweepOptions& opts,
                            const ConditionTape* tape) {
  ExperimentConfig config = cell.experiment;
  config.scheme_cache = opts.scheme_cache;
  config.decoding_cache_capacity = opts.decoding_cache_capacity;
  config.condition_tape = tape;
  config.sim.trace_track = cell_trace_track(cell);
  const SchemeSummary run =
      run_experiment(cell.scheme, *cell.cluster, config, script);
  CellResult result;
  result.stats.emplace_back("time", run.iteration_time);
  result.metrics.emplace_back("failures", static_cast<double>(run.failures));
  if (kind == ScenarioKind::kStatic) {
    result.stats.emplace_back("usage", run.resource_usage);
    if (run.ever_failed()) result.note = "fail";
    return result;
  }
  result.quantiles.emplace_back("latency", run.latency);
  if (kind != ScenarioKind::kTraceReplay)
    result.metrics.emplace_back("reinstantiations",
                                static_cast<double>(run.reinstantiations));
  if (kind == ScenarioKind::kScript)
    result.metrics.emplace_back("bursts",
                                static_cast<double>(run.bursts_started));
  result.metrics.emplace_back("total_time", run.total_time);
  return result;
}

/// Runs one cell through `fn` with the per-cell observability: a wall-clock
/// span (arg = cell index, so the trace row maps back to a ResultTable row),
/// progress counters for --progress, and a cell-duration stat, all out of
/// band. An exception becomes the row's error note.
CellResult guarded(const Cell& cell, const CellFn& fn) {
  HGC_TRACE_SCOPE("cell", "sweep", static_cast<std::int64_t>(cell.index));
  const bool metrics = obs::metrics_enabled();
  Stopwatch timer;
  CellResult result;
  try {
    result = fn(cell);
  } catch (const std::exception& e) {
    result.note = std::string("error: ") + e.what();
    if (metrics) {
      static const obs::Counter cells_failed =
          obs::Registry::global().counter("sweep.cells.failed");
      cells_failed.add();
    }
  }
  if (metrics) {
    static const obs::Counter cells_done =
        obs::Registry::global().counter("sweep.cells.done");
    static const obs::StatHandle cell_seconds =
        obs::Registry::global().stat("sweep.cell_seconds");
    cells_done.add();
    cell_seconds.observe(timer.seconds());
  }
  return result;
}

/// Puts a sweep's cells on the pool; each task writes only its own cells'
/// result slots.
using SubmitFn = std::function<void(
    const std::vector<Cell>&, std::vector<CellResult>&, ThreadPool&)>;

/// The driver every sweep shares: expand the grid, run the tasks `submit`
/// queues (under the optional recorder), then assemble the table serially
/// in cell-index order.
ResultTable drive(const SweepGrid& grid, const SweepOptions& opts,
                  const SubmitFn& submit) {
  const std::vector<Cell> cells = expand(grid);
  std::vector<CellResult> results(cells.size());
  if (obs::metrics_enabled()) {
    static const obs::Gauge cells_total =
        obs::Registry::global().gauge("sweep.cells.total");
    cells_total.set(static_cast<double>(cells.size()));
  }
  std::unique_ptr<obs::Recorder> recorder;
  if (opts.metrics_interval_seconds > 0.0) {
    obs::RecorderOptions ropts;
    ropts.interval_seconds = opts.metrics_interval_seconds;
    ropts.jsonl = opts.metrics_log;
    recorder = std::make_unique<obs::Recorder>(ropts);
    recorder->start();
  }
  ThreadPool pool(opts.threads ? opts.threads : ThreadPool::default_threads());
  submit(cells, results, pool);
  pool.wait_idle();
  if (recorder) recorder->stop();
  if (opts.metrics_snapshot)
    *opts.metrics_snapshot = obs::Registry::global().snapshot();

  ResultTable table;
  for (const Cell& cell : cells) {
    CellResult& r = results[cell.index];
    ResultRow row;
    row.axes = cell.axes;
    row.metrics = std::move(r.metrics);
    row.stats = std::move(r.stats);
    row.quantiles = std::move(r.quantiles);
    row.note = std::move(r.note);
    table.add_row(std::move(row));
  }
  return table;
}

/// Largest condition tape one draw group may share. Cells whose tape would
/// be bigger run ungrouped and draw round by round, so no tape passes this
/// budget however long or wide the grid is.
constexpr std::size_t kMaxTapeBytes = std::size_t{8} << 20;

/// The built-in sweep's draw groups, in first-cell order. A draw group is
/// the cells whose conditions are provably identical: same cluster, victim
/// count, fluctuation σ, seed and iteration count, under a script with no
/// churn and no bursts. Scheme, delay, fault, estimation error, k and a
/// splice or drift do not enter the condition stream. Every other cell, and
/// every cell whose tape would pass kMaxTapeBytes, is a group of its own.
std::vector<std::vector<std::size_t>> draw_groups(
    const std::vector<Cell>& cells,
    const std::vector<engine::ScenarioScript>& scripts) {
  using Key = std::tuple<const Cluster*, std::size_t, std::uint64_t,
                         std::uint64_t, std::size_t>;
  std::map<Key, std::size_t> group_of;
  std::vector<std::vector<std::size_t>> groups;
  for (const Cell& cell : cells) {
    const engine::ScenarioScript& script = scripts[cell.scenario_index];
    const ExperimentConfig& config = cell.experiment;
    if (!script.churn.empty() || !script.bursts.empty() ||
        ConditionTape::bytes(config.model, cell.cluster->size(),
                             config.iterations) > kMaxTapeBytes) {
      groups.push_back({cell.index});
      continue;
    }
    const Key key{cell.cluster, config.model.num_stragglers,
                  std::bit_cast<std::uint64_t>(config.model.fluctuation_sigma),
                  config.seed, config.iterations};
    const auto [it, fresh] = group_of.try_emplace(key, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(cell.index);
  }
  return groups;
}

/// A draw group's shared tape, drawn from its first cell; none when the
/// draw throws: the members then draw their own conditions, so each reports
/// the error its own run would.
std::shared_ptr<const ConditionTape> group_tape(const Cell& first) {
  // A wall-clock span per tape (arg = its first cell): the draw runs in the
  // group's own pool task, outside every member's cell span.
  HGC_TRACE_SCOPE("condition_tape", "sweep",
                  static_cast<std::int64_t>(first.index));
  try {
    return std::make_shared<const ConditionTape>(
        first.experiment.model, first.cluster->size(),
        first.experiment.iterations, condition_stream(first.experiment.seed));
  } catch (const std::exception&) {
    return nullptr;
  }
}

}  // namespace

ResultTable run_sweep(const SweepGrid& grid, const CellFn& fn,
                      const SweepOptions& opts) {
  return drive(grid, opts,
               [&fn](const std::vector<Cell>& cells,
                     std::vector<CellResult>& results, ThreadPool& pool) {
                 for (const Cell& cell : cells)
                   pool.submit([&fn, &cell, &results] {
                     results[cell.index] = guarded(cell, fn);
                   });
               });
}

ResultTable run_sweep(const SweepGrid& grid, const SweepOptions& opts) {
  std::vector<engine::ScenarioScript> scripts;
  scripts.reserve(grid.scenarios.size());
  for (const ScenarioSpec& scenario : grid.scenarios)
    scripts.push_back(script_of(scenario));
  return drive(grid, opts, [&](const std::vector<Cell>& cells,
                               std::vector<CellResult>& results,
                               ThreadPool& pool) {
    // Group tasks run after this function returns, so each takes a copy;
    // everything it captures lives until the pool drains.
    const auto submit_cell = [&](std::size_t index,
                                 std::shared_ptr<const ConditionTape> tape) {
      pool.submit([&, index, tape = std::move(tape)] {
        const CellFn fn = [&](const Cell& cell) {
          return run_builtin_cell(cell,
                                  grid.scenarios[cell.scenario_index].kind,
                                  scripts[cell.scenario_index], opts,
                                  tape.get());
        };
        results[index] = guarded(cells[index], fn);
      });
    };
    for (std::vector<std::size_t>& members : draw_groups(cells, scripts)) {
      if (members.size() == 1) {
        submit_cell(members.front(), nullptr);
        continue;
      }
      // The group's task draws the tape, then queues every member as a task
      // of its own, so a group's cells still run in parallel. Each member
      // holds the tape; the last one to finish frees it.
      pool.submit([submit_cell, &cells, members = std::move(members)] {
        const std::shared_ptr<const ConditionTape> tape =
            group_tape(cells[members.front()]);
        for (std::size_t index : members) submit_cell(index, tape);
      });
    }
  });
}

}  // namespace hgc::exec
