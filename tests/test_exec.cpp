// Tests for the parallel sweep runtime: thread pool, grid expansion,
// deterministic execution, result tables, and the grid-spec parser.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/figures.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"

namespace hgc::exec {
namespace {

std::string csv_of(const ResultTable& table) {
  std::ostringstream os;
  table.to_csv(os);
  return os.str();
}

// --- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, SingleThreadWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, TasksWriteToPreassignedSlots) {
  ThreadPool pool(3);
  std::vector<int> slots(100, 0);
  for (int i = 0; i < 100; ++i)
    pool.submit([&slots, i] { slots[static_cast<std::size_t>(i)] = i + 1; });
  pool.wait_idle();
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(slots[static_cast<std::size_t>(i)], i + 1);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

// --- Grid expansion -----------------------------------------------------

SweepGrid small_grid() {
  SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kCyclic, SchemeKind::kHeterAware};
  grid.s_values = {1};
  grid.iterations = 10;
  StragglerAxis none;
  StragglerAxis delayed;
  delayed.delay_factor = 2.0;
  delayed.fluctuation_sigma = 0.02;
  grid.models = {none, delayed};
  grid.seeds = {1, 2};
  return grid;
}

TEST(SweepGrid, ExpandsTheFullCartesianProduct) {
  const SweepGrid grid = small_grid();
  EXPECT_EQ(grid.num_cells(), 2u * 2u * 2u);
  const std::vector<Cell> cells = expand(grid);
  ASSERT_EQ(cells.size(), 8u);
  for (std::size_t i = 0; i < cells.size(); ++i)
    EXPECT_EQ(cells[i].index, i);
}

TEST(SweepGrid, ResolvesExactPartitionCountAndDelays) {
  const SweepGrid grid = small_grid();
  const std::vector<Cell> cells = expand(grid);
  const std::size_t exact = exact_partition_count(grid.clusters[0], 1);
  const double ideal = ideal_iteration_time(grid.clusters[0], 1);
  for (const Cell& cell : cells) {
    EXPECT_EQ(cell.experiment.k, exact);
    EXPECT_EQ(cell.experiment.s, 1u);
  }
  // The delayed model axis resolves its factor against the cluster.
  bool saw_delay = false;
  for (const Cell& cell : cells)
    if (cell.experiment.model.delay_seconds > 0.0) {
      EXPECT_DOUBLE_EQ(cell.experiment.model.delay_seconds, 2.0 * ideal);
      // kMatchS: victim count follows the cell's s.
      EXPECT_EQ(cell.experiment.model.num_stragglers, 1u);
      saw_delay = true;
    }
  EXPECT_TRUE(saw_delay);
}

TEST(SweepGrid, ForkedSeedsAreDistinctAndReproducible) {
  const SweepGrid grid = small_grid();
  const std::vector<Cell> a = expand(grid);
  const std::vector<Cell> b = expand(grid);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].forked_seed, b[i].forked_seed);
    for (std::size_t j = i + 1; j < a.size(); ++j)
      EXPECT_NE(a[i].forked_seed, a[j].forked_seed);
  }
}

TEST(SweepGrid, SingleValuedAxesStayOutOfRowCoordinates) {
  const SweepGrid grid = small_grid();
  const std::vector<Cell> cells = expand(grid);
  const auto has_axis = [](const Cell& cell, const std::string& name) {
    for (const auto& [axis_name, value] : cell.axes)
      if (axis_name == name) return true;
    return false;
  };
  for (const Cell& cell : cells) {
    EXPECT_TRUE(has_axis(cell, "cluster"));
    EXPECT_TRUE(has_axis(cell, "scheme"));
    EXPECT_TRUE(has_axis(cell, "model"));
    EXPECT_TRUE(has_axis(cell, "seed"));
    EXPECT_FALSE(has_axis(cell, "s"));      // single-valued
    EXPECT_FALSE(has_axis(cell, "sigma"));  // single-valued
  }
}

// --- Deterministic execution --------------------------------------------

TEST(RunSweep, BitIdenticalAcrossThreadCounts) {
  const SweepGrid grid = small_grid();
  const std::string serial = csv_of(run_sweep(grid, {.threads = 1}));
  const std::string parallel4 = csv_of(run_sweep(grid, {.threads = 4}));
  EXPECT_EQ(serial, parallel4);
  EXPECT_FALSE(serial.empty());
}

TEST(RunSweep, CachesAreResultTransparentAtAnyThreadCount) {
  // The tentpole invariant of the caching subsystem: a shared scheme cache
  // plus per-cell decoding caches must not change a byte of the table,
  // serial or parallel. (Runs under TSan in CI: cells on 4 pool threads
  // race on the shared SchemeCache.)
  const SweepGrid grid = small_grid();
  const std::string uncached = csv_of(run_sweep(grid, {.threads = 1}));

  // Collect the cache counters through the obs registry (the sweep-level
  // stats plumbing the old SweepCacheStats struct used to provide).
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);

  SchemeCache scheme_cache;
  obs::Snapshot snapshot;
  SweepOptions cached_serial;
  cached_serial.threads = 1;
  cached_serial.scheme_cache = &scheme_cache;
  cached_serial.decoding_cache_capacity = 256;
  cached_serial.metrics_snapshot = &snapshot;
  EXPECT_EQ(csv_of(run_sweep(grid, cached_serial)), uncached);

  SweepOptions cached_parallel = cached_serial;
  cached_parallel.threads = 4;
  EXPECT_EQ(csv_of(run_sweep(grid, cached_parallel)), uncached);
  obs::set_metrics_enabled(false);

  // The grid repeats schemes across seeds/models, so both caches must see
  // real traffic — hit rates, not just equality, prove the wiring is live.
  EXPECT_GT(scheme_cache.hits(), 0u);
  EXPECT_GT(snapshot.counter("scheme_cache.hits"), 0u);
  EXPECT_GT(snapshot.counter("decode_cache.hits") +
                snapshot.counter("decode_cache.misses"),
            0u);
}

TEST(RunSweep, ScenarioCellsAreCacheTransparentToo) {
  SweepGrid grid = scenarios_grid(15);
  grid.schemes = {SchemeKind::kHeterAware};
  const std::string uncached = csv_of(run_sweep(grid, {.threads = 2}));
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  SweepOptions cached;
  cached.threads = 2;
  SchemeCache scheme_cache;
  obs::Snapshot snapshot;
  cached.scheme_cache = &scheme_cache;
  cached.decoding_cache_capacity = 256;
  cached.metrics_snapshot = &snapshot;
  EXPECT_EQ(csv_of(run_sweep(grid, cached)), uncached);
  obs::set_metrics_enabled(false);
  // Churn/trace cells run tens of rounds against one scheme: the decoding
  // cache must have absorbed repeats.
  EXPECT_GT(snapshot.counter("decode_cache.hits"), 0u);
}

TEST(RunSweep, CustomCellFnSeesCustomAxes) {
  SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kNaive};
  grid.iterations = 1;
  grid.custom_axes = {{"x", {1.0, 2.0}, {}}, {"y", {10.0, 20.0}, {}}};
  const CellFn fn = [](const Cell& cell) {
    CellResult result;
    result.metrics.emplace_back("product",
                                cell.custom.at(0) * cell.custom.at(1));
    return result;
  };
  const ResultTable table = run_sweep(grid, fn, {.threads = 2});
  ASSERT_EQ(table.size(), 4u);
  double v = 0.0;
  ASSERT_NE(table.find({{"x", "2"}, {"y", "20"}}), nullptr);
  table.find({{"x", "2"}, {"y", "20"}})->value("product", v);
  EXPECT_DOUBLE_EQ(v, 40.0);
}

TEST(RunSweep, CellExceptionsLandInTheNote) {
  SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kNaive};
  grid.iterations = 1;
  const CellFn fn = [](const Cell&) -> CellResult {
    throw std::runtime_error("boom");
  };
  const ResultTable table = run_sweep(grid, fn, {.threads = 2});
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.row(0).note, "error: boom");
}

TEST(RunSweep, ScenarioAxisRunsChurnAndTraceCells) {
  SweepGrid grid = scenarios_grid(20);
  grid.schemes = {SchemeKind::kHeterAware};
  const ResultTable table = run_sweep(grid, {.threads = 2});
  ASSERT_EQ(table.size(), 3u);
  const ResultRow* churn = table.find({{"scenario", "churn"}});
  ASSERT_NE(churn, nullptr);
  double reinstantiations = 0.0;
  ASSERT_TRUE(churn->value("reinstantiations", reinstantiations));
  EXPECT_GE(reinstantiations, 1.0);  // the demo schedule has two events
  const ResultRow* trace = table.find({{"scenario", "trace"}});
  ASSERT_NE(trace, nullptr);
  double p95 = 0.0;
  ASSERT_TRUE(trace->value("latency_p95", p95));
  EXPECT_GT(p95, 0.0);
}

// --- ResultTable --------------------------------------------------------

ResultRow make_row(const std::string& cluster, const std::string& seed,
                   double time_value, std::size_t samples) {
  ResultRow row;
  row.axes = {{"cluster", cluster}, {"seed", seed}};
  RunningStats stats;
  for (std::size_t i = 0; i < samples; ++i)
    stats.add(time_value + static_cast<double>(i));
  row.stats.emplace_back("time", stats);
  row.metrics.emplace_back("failures", 0.0);
  return row;
}

TEST(ResultTable, CsvIsStableAndComplete) {
  ResultTable table;
  table.add_row(make_row("A", "1", 1.0, 2));
  table.add_row(make_row("A", "2", 3.0, 2));
  const std::string csv = csv_of(table);
  EXPECT_NE(csv.find("cluster,seed,time_mean,time_stddev,time_count,"
                     "failures"),
            std::string::npos);
  EXPECT_NE(csv.find("A,1,1.5,"), std::string::npos);
}

TEST(ResultTable, JsonHasAxesAndMetrics) {
  ResultTable table;
  table.add_row(make_row("A", "1", 1.0, 2));
  std::ostringstream os;
  table.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"cluster\": \"A\""), std::string::npos);
  EXPECT_NE(json.find("\"time_mean\": 1.5"), std::string::npos);
}

TEST(ResultTable, AggregateMergesStatsExactly) {
  ResultTable table;
  table.add_row(make_row("A", "1", 1.0, 3));
  table.add_row(make_row("A", "2", 10.0, 5));
  table.add_row(make_row("B", "1", 2.0, 3));
  table.add_row(make_row("B", "2", 20.0, 5));
  const ResultTable merged = table.aggregate_over("seed");
  ASSERT_EQ(merged.size(), 2u);
  // Per-seed partials combine exactly: counts add, means pool.
  double count = 0.0, mean = 0.0;
  merged.find({{"cluster", "A"}})->value("time_count", count);
  merged.find({{"cluster", "A"}})->value("time_mean", mean);
  EXPECT_DOUBLE_EQ(count, 8.0);
  // Sequential stream: {1,2,3, 10,11,12,13,14} -> mean 8.25.
  EXPECT_DOUBLE_EQ(mean, 8.25);
  double cells = 0.0;
  merged.find({{"cluster", "B"}})->value("cells_merged", cells);
  EXPECT_DOUBLE_EQ(cells, 2.0);
}

TEST(ResultTable, PivotShowsMetricAndNotes) {
  ResultTable table;
  table.add_row(make_row("A", "1", 4.0, 1));
  ResultRow failed = make_row("B", "1", 0.0, 1);
  failed.note = "fail";
  table.add_row(failed);
  const TablePrinter pivoted = table.pivot("seed", "cluster", "time");
  std::ostringstream os;
  pivoted.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("4.0000"), std::string::npos);
  EXPECT_NE(text.find("fail"), std::string::npos);
}

TEST(ResultTable, FormatDoubleRoundTrips) {
  EXPECT_EQ(ResultTable::format_double(0.5), "0.5");
  EXPECT_EQ(ResultTable::format_double(1.0 / 3.0),
            ResultTable::format_double(1.0 / 3.0));
  EXPECT_EQ(std::stod(ResultTable::format_double(1.0 / 3.0)), 1.0 / 3.0);
}

// --- Grid-spec parsing --------------------------------------------------

TEST(GridSpec, ParsesAxesAndRanges) {
  const SweepGrid grid = parse_grid_spec(
      "clusters=A,B;schemes=heter,group;s=1,2;sigmas=0,0.2;seeds=1..4;"
      "iters=25;delay_factors=0,2;fault=1;fluct=0.05");
  EXPECT_EQ(grid.clusters.size(), 2u);
  EXPECT_EQ(grid.schemes.size(), 2u);
  EXPECT_EQ(grid.s_values, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(grid.sigmas, (std::vector<double>{0.0, 0.2}));
  EXPECT_EQ(grid.seeds, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(grid.iterations, 25u);
  ASSERT_EQ(grid.models.size(), 3u);  // two delay factors + fault
  EXPECT_TRUE(grid.models.back().fault);
  EXPECT_DOUBLE_EQ(grid.models[1].delay_factor, 2.0);
  EXPECT_DOUBLE_EQ(grid.models[0].fluctuation_sigma, 0.05);
}

TEST(GridSpec, ParsesScenarios) {
  const SweepGrid grid =
      parse_grid_spec("schemes=heter;iters=10;scenarios=static,churn,trace");
  ASSERT_EQ(grid.scenarios.size(), 3u);
  EXPECT_EQ(grid.scenarios[0].kind, ScenarioKind::kStatic);
  EXPECT_EQ(grid.scenarios[1].kind, ScenarioKind::kChurn);
  EXPECT_FALSE(grid.scenarios[1].churn_events.empty());
  EXPECT_EQ(grid.scenarios[2].kind, ScenarioKind::kTraceReplay);
  EXPECT_GT(grid.scenarios[2].trace.num_iterations(), 0u);
}

/// EXPECT_THROW plus a check that the message contains `needle`.
void expect_spec_error(const std::string& spec, const std::string& needle) {
  try {
    parse_grid_spec(spec);
    FAIL() << "expected '" << spec << "' to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "spec '" << spec << "' threw: " << e.what();
  }
}

TEST(GridSpec, RejectsUnknownKeysAndValues) {
  EXPECT_THROW(parse_grid_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_grid_spec("clusters=Z"), std::invalid_argument);
  EXPECT_THROW(parse_grid_spec("schemes"), std::invalid_argument);
  EXPECT_THROW(parse_grid_spec("scenarios=warp"), std::invalid_argument);
  // A worker count past size_t names the key and the value instead of
  // escaping as std::out_of_range.
  expect_spec_error("clusters=scale99999999999999999999999",
                    "'clusters'");
  expect_spec_error("clusters=scale99999999999999999999999",
                    "scale99999999999999999999999");
  // Non-finite numbers used to run (nan time_mean rows, infinite noise);
  // every numeric key rejects them by name.
  for (const char* key : {"delay_factors", "delays", "latency", "fluct",
                          "sigmas", "fault"})
    for (const char* value : {"inf", "-inf", "nan", "1e999"})
      expect_spec_error(std::string(key) + "=" + value,
                        "'" + std::string(key) + "'");
  expect_spec_error("delay_factors=1.5,inf", "'delay_factors'");
  expect_spec_error("sigmas=x", "'sigmas'");
  for (const char* key : {"s", "k", "iters", "seeds", "stragglers"})
    expect_spec_error(std::string(key) + "=inf", "'" + std::string(key) + "'");
  EXPECT_NO_THROW(parse_grid_spec("delay_factors=1.5;latency=0.01;fluct=0.2"));
}

TEST(GridSpec, RejectsNonIntegralAndNegativeCounts) {
  // Regression: these used to truncate (s=1.5 → 1) or wrap through
  // static_cast to huge size_t values (s=-1, k=-2, iters=-5) — silently.
  expect_spec_error("s=1.5", "'s'");
  expect_spec_error("s=-1", "'s'");
  expect_spec_error("k=-2", "'k'");
  expect_spec_error("k=2.25", "'k'");
  expect_spec_error("iters=-5", "'iters'");
  expect_spec_error("seeds=-3", "'seeds'");
  expect_spec_error("seeds=1..2.5", "'seeds'");
  expect_spec_error("stragglers=-1", "'stragglers'");
  // Plain integral values (including the k=0 sentinel) still parse.
  const SweepGrid grid = parse_grid_spec("s=2;k=0;iters=7;seeds=3");
  EXPECT_EQ(grid.s_values, (std::vector<std::size_t>{2}));
  EXPECT_EQ(grid.k_values, (std::vector<std::size_t>{0}));
  EXPECT_EQ(grid.iterations, 7u);
}

TEST(GridSpec, RejectsMultiSGridsOverDemoScenarioSchedules) {
  // Regression: the demo churn/trace schedules bind to s_values.front();
  // a grid like s=1,2;scenario=churn silently ran the s=1 schedule in
  // every cell.
  expect_spec_error("s=1,2;scenarios=churn;iters=10", "one s value");
  expect_spec_error("s=1,2;scenarios=trace;iters=10", "one s value");
  expect_spec_error("s=1,2;scenarios=static,churn;iters=10", "one s value");
  // A single s is fine, and so is multi-s over static-only scenarios.
  EXPECT_NO_THROW(parse_grid_spec("s=2;scenarios=churn;iters=10"));
  EXPECT_NO_THROW(parse_grid_spec("s=1,2;scenarios=static;iters=10"));
}

TEST(GridSpec, RejectsTracePathNoScenarioConsumes) {
  // Regression: trace=<path> was silently ignored when a scenarios= list
  // omitted 'trace' — the demo schedule ran while the operator believed
  // their recorded trace was driving the cells.
  expect_spec_error("scenarios=churn;trace=some.csv;iters=10",
                    "does not include 'trace'");
  expect_spec_error("scenarios=static;trace=some.csv", "trace=some.csv");
}

TEST(GridSpec, TracePathFeedsTheTraceScenarioAndLiftsTheMultiSBan) {
  const std::string path = "grid_spec_trace_tmp.csv";
  {
    std::ofstream out(path);
    out << "0.5,0,0,0,0,0,0,0\n0,0,0,0.25,0,0,0,0\n";
  }
  // With a recorded file the trace scenario no longer depends on s, so a
  // multi-s grid is legal again.
  const SweepGrid grid =
      parse_grid_spec("s=1,2;scenarios=trace;trace=" + path + ";iters=10");
  ASSERT_EQ(grid.scenarios.size(), 1u);
  EXPECT_EQ(grid.scenarios[0].kind, ScenarioKind::kTraceReplay);
  EXPECT_EQ(grid.scenarios[0].trace.num_iterations(), 2u);
  std::remove(path.c_str());
}

// --- Scenario cells honour every grid axis -----------------------------

/// Every value column of the row at `where`, in column order, so two rows
/// compare as wholes.
std::vector<double> row_values(
    const ResultTable& table,
    const std::vector<std::pair<std::string, std::string>>& where) {
  std::vector<double> values;
  const ResultRow* row = table.find(where);
  EXPECT_NE(row, nullptr);
  if (row == nullptr) return values;
  for (const std::string& column : table.columns()) {
    double v = 0.0;
    if (row->value(column, v)) values.push_back(v);
  }
  return values;
}

/// A file under the repository's examples/ directory.
std::string example_path(const std::string& name) {
  return (std::filesystem::path(HGC_SOURCE_DIR) / "examples" / name).string();
}

TEST(ScenarioAxes, ChurnAndScriptCellsApplyEstimationError) {
  // Regression: churn and script cells built their schemes from the exact
  // throughputs, so every sigma produced byte-identical rows.
  const std::vector<std::string> specs = {
      "schemes=heter,group;sigmas=0,0.3;iters=40;scenarios=churn",
      "schemes=heter,group;sigmas=0,0.3;iters=40;scenario_file=" +
          example_path("churn_drift.scn")};
  for (const std::string& spec : specs) {
    const ResultTable table = run_sweep(parse_grid_spec(spec), {.threads = 2});
    for (const char* scheme : {"heter-aware", "group-based"})
      EXPECT_NE(row_values(table, {{"sigma", "0"}, {"scheme", scheme}}),
                row_values(table, {{"sigma", "0.3"}, {"scheme", scheme}}))
          << spec << ", " << scheme;
  }
}

TEST(ScenarioAxes, TraceCellsComposeOntoTheStragglerModel) {
  // Regression: trace cells replayed the trace alone, so the delayed and
  // fault models produced the same rows as the model-free one.
  const ResultTable table = run_sweep(
      parse_grid_spec(
          "schemes=naive,heter;delay_factors=0,4;fault=1;iters=40;"
          "scenarios=trace"),
      {.threads = 2});
  for (const char* scheme : {"naive", "heter-aware"}) {
    const auto none = row_values(table, {{"model", "none"}, {"scheme", scheme}});
    const auto delayed =
        row_values(table, {{"model", "4.0x ideal"}, {"scheme", scheme}});
    const auto fault =
        row_values(table, {{"model", "fault"}, {"scheme", scheme}});
    EXPECT_NE(none, delayed) << scheme;
    EXPECT_NE(none, fault) << scheme;
    EXPECT_NE(delayed, fault) << scheme;
  }
}

// --- Draw groups --------------------------------------------------------

/// The built-in cell body with no draw groups: one run_experiment call per
/// cell, drawing its own conditions. The reference a grouped built-in sweep
/// must equal byte for byte.
CellFn ungrouped_builtin(const SweepGrid& grid) {
  return [&grid](const Cell& cell) {
    const ScenarioSpec& scenario = grid.scenarios[cell.scenario_index];
    engine::ScenarioScript script = scenario.script;
    if (scenario.kind == ScenarioKind::kChurn)
      script.churn = scenario.churn_events;
    if (scenario.kind == ScenarioKind::kTraceReplay) {
      script.splice = scenario.trace;
      script.splice_repeat = 0;
    }
    const SchemeSummary run =
        run_experiment(cell.scheme, *cell.cluster, cell.experiment, script);
    CellResult result;
    result.stats.emplace_back("time", run.iteration_time);
    result.metrics.emplace_back("failures",
                                static_cast<double>(run.failures));
    if (scenario.kind == ScenarioKind::kStatic) {
      result.stats.emplace_back("usage", run.resource_usage);
      if (run.ever_failed()) result.note = "fail";
      return result;
    }
    result.quantiles.emplace_back("latency", run.latency);
    if (scenario.kind != ScenarioKind::kTraceReplay)
      result.metrics.emplace_back("reinstantiations",
                                  static_cast<double>(run.reinstantiations));
    if (scenario.kind == ScenarioKind::kScript)
      result.metrics.emplace_back("bursts",
                                  static_cast<double>(run.bursts_started));
    result.metrics.emplace_back("total_time", run.total_time);
    return result;
  };
}

/// A drift-only script: its cells join draw groups.
engine::ScenarioScript drift_script(const Cluster& cluster) {
  engine::ScenarioScript script;
  script.workers = cluster.size();
  const double ideal = ideal_iteration_time(cluster, 1);
  script.drifts = {{0, 1.0, 0.4, 2.0 * ideal, 8.0 * ideal}};
  return script;
}

/// A burst script: its Bernoulli draws interleave with the condition
/// stream, so its cells draw their own conditions.
engine::ScenarioScript burst_script(const Cluster& cluster) {
  engine::ScenarioScript script;
  script.workers = cluster.size();
  const double ideal = ideal_iteration_time(cluster, 1);
  script.bursts = {{{1, 2}, 0.3, 3.0 * ideal, 2.0 * ideal, false}};
  return script;
}

/// Every scenario kind, and models that share and split draw groups.
SweepGrid draw_group_grid(std::size_t iterations) {
  SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = paper_schemes();
  grid.iterations = iterations;
  const Cluster& cluster = grid.clusters.front();
  ScenarioSpec trace;
  trace.name = "trace";
  trace.kind = ScenarioKind::kTraceReplay;
  trace.trace = demo_delay_trace(cluster, 5, 1);
  ScenarioSpec drift;
  drift.name = "drift";
  drift.kind = ScenarioKind::kScript;
  drift.script = drift_script(cluster);
  ScenarioSpec burst;
  burst.name = "burst";
  burst.kind = ScenarioKind::kScript;
  burst.script = burst_script(cluster);
  ScenarioSpec churn;
  churn.name = "churn";
  churn.kind = ScenarioKind::kChurn;
  churn.churn_events = demo_churn_events(cluster, iterations, 1);
  grid.scenarios = {ScenarioSpec{}, trace, drift, burst, churn};
  grid.models.clear();
  for (double fluct : {0.0, 0.1}) {
    const std::string suffix = fluct > 0.0 ? " fluct" : "";
    StragglerAxis none;
    none.label = "none" + suffix;
    none.fluctuation_sigma = fluct;
    StragglerAxis delayed = none;
    delayed.label = "2x" + suffix;
    delayed.delay_factor = 2.0;
    StragglerAxis fault = none;
    fault.label = "fault" + suffix;
    fault.fault = true;
    grid.models.insert(grid.models.end(), {none, delayed, fault});
  }
  grid.sigmas = {0.0, 0.1};
  grid.seeds = {3, 4};
  return grid;
}

TEST(DrawGroups, BuiltinSweepEqualsOneRunPerCell) {
  const SweepGrid grid = draw_group_grid(12);
  const std::string reference =
      csv_of(run_sweep(grid, ungrouped_builtin(grid), {.threads = 1}));
  ASSERT_FALSE(reference.empty());
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}})
    EXPECT_EQ(csv_of(run_sweep(grid, {.threads = threads})), reference)
        << "threads=" << threads;
}

TEST(DrawGroups, AFailedTapeDrawKeepsEveryCellsErrorNote) {
  SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kCyclic, SchemeKind::kHeterAware};
  grid.iterations = 4;
  StragglerAxis too_many;
  too_many.num_stragglers = cluster_a().size() + 1;
  too_many.delay_factor = 2.0;
  StragglerAxis fine;
  fine.delay_factor = 2.0;
  grid.models = {too_many, fine};
  const ResultTable grouped = run_sweep(grid, {.threads = 2});
  EXPECT_EQ(csv_of(grouped),
            csv_of(run_sweep(grid, ungrouped_builtin(grid), {.threads = 1})));
  ASSERT_EQ(grouped.size(), 4u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NE(grouped.row(i).note.find("cannot delay more workers"),
              std::string::npos)
        << grouped.row(i).note;
    EXPECT_EQ(grouped.row(i + 2).note, "");
  }
}

/// Every round's conditions and the summary of one run.
struct ObservedRun {
  std::vector<IterationConditions> rounds;
  SchemeSummary summary;
};

ObservedRun observe(SchemeKind kind, const Cluster& cluster,
                    const ExperimentConfig& config,
                    const engine::ScenarioScript& script) {
  ObservedRun run;
  RoundHook hook;
  hook.after_round = [&run](const RoundView& view) {
    run.rounds.push_back(view.conditions);
    return std::optional<Throughputs>();
  };
  run.summary = run_experiment(kind, cluster, config, script, hook);
  return run;
}

TEST(DrawGroups, RunExperimentOnATapeEqualsItsOwnDraws) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.s = 1;
  config.iterations = 15;
  config.seed = 9;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 2.0 * ideal_iteration_time(cluster, 1);
  config.model.fluctuation_sigma = 0.05;
  const ConditionTape tape(config.model, cluster.size(), config.iterations,
                           condition_stream(config.seed));
  engine::ScenarioScript spliced = drift_script(cluster);
  spliced.splice = demo_delay_trace(cluster, 4, 1);
  for (const engine::ScenarioScript& script :
       {engine::ScenarioScript{}, spliced}) {
    for (SchemeKind kind :
         {SchemeKind::kNaive, SchemeKind::kCyclic,
          SchemeKind::kFractionalRepetition, SchemeKind::kHeterAware,
          SchemeKind::kGroupBased}) {
      ExperimentConfig taped = config;
      taped.condition_tape = &tape;
      const ObservedRun own = observe(kind, cluster, config, script);
      const ObservedRun replayed = observe(kind, cluster, taped, script);
      const std::string name = to_string(kind);
      ASSERT_EQ(own.rounds.size(), replayed.rounds.size()) << name;
      for (std::size_t i = 0; i < own.rounds.size(); ++i) {
        EXPECT_EQ(own.rounds[i].speed_factor, replayed.rounds[i].speed_factor)
            << name << " round " << i;
        EXPECT_EQ(own.rounds[i].delay, replayed.rounds[i].delay)
            << name << " round " << i;
        EXPECT_EQ(own.rounds[i].faulted, replayed.rounds[i].faulted)
            << name << " round " << i;
      }
      EXPECT_EQ(own.summary.total_time, replayed.summary.total_time) << name;
      EXPECT_EQ(own.summary.failures, replayed.summary.failures) << name;
      EXPECT_EQ(own.summary.iteration_time.mean(),
                replayed.summary.iteration_time.mean())
          << name;
      EXPECT_EQ(own.summary.resource_usage.mean(),
                replayed.summary.resource_usage.mean())
          << name;
    }
  }
}

TEST(DrawGroups, RunExperimentRejectsMismatchedTapesAndScripts) {
  const Cluster cluster = cluster_a();
  ExperimentConfig config;
  config.iterations = 6;
  config.model.num_stragglers = 1;
  config.model.fluctuation_sigma = 0.05;
  const auto rejects = [&](const StragglerModel& model, std::size_t workers,
                           std::size_t iterations,
                           const engine::ScenarioScript& script) {
    const ConditionTape tape(model, workers, iterations,
                             condition_stream(config.seed));
    ExperimentConfig taped = config;
    taped.condition_tape = &tape;
    EXPECT_THROW(run_experiment(SchemeKind::kCyclic, cluster, taped, script),
                 std::invalid_argument);
  };
  const std::size_t m = cluster.size();
  rejects(config.model, m + 1, config.iterations, {});
  rejects(config.model, m, config.iterations + 1, {});
  StragglerModel other = config.model;
  other.num_stragglers = 2;
  rejects(other, m, config.iterations, {});
  other = config.model;
  other.fluctuation_sigma = 0.1;
  rejects(other, m, config.iterations, {});
  rejects(config.model, m, config.iterations, burst_script(cluster));
  engine::ScenarioScript churn;
  churn.churn = demo_churn_events(cluster, config.iterations, 1);
  rejects(config.model, m, config.iterations, churn);
}

// --- Figure presets -----------------------------------------------------

TEST(Figures, EveryPresetBuilds) {
  for (const std::string& name : figure_names()) {
    const FigureSweep figure = make_figure(name);
    EXPECT_EQ(figure.name, name);
    EXPECT_GT(figure.grid.num_cells(), 0u) << name;
  }
  EXPECT_THROW(make_figure("fig99"), std::invalid_argument);
}

TEST(Figures, AdaptiveWindowsPartitionShortRuns) {
  // The five windows partition [0, iters) exactly, so short runs neither
  // index past the end nor drop their tail; an empty window reads NaN.
  for (std::size_t iters : {3, 7}) {
    const ResultTable table =
        run_figure(make_figure("adaptive", iters), {.threads = 1});
    ASSERT_EQ(table.size(), 4u) << iters;
    for (const ResultRow& row : table.rows()) {
      EXPECT_EQ(row.note, "") << iters;
      double w0 = 0.0;
      double w4 = 0.0;
      ASSERT_TRUE(row.value("w0", w0)) << iters;
      ASSERT_TRUE(row.value("w4", w4)) << iters;
      EXPECT_EQ(std::isnan(w0), iters < 5) << iters;  // [0, iters/5) empty
      EXPECT_FALSE(std::isnan(w4)) << iters;          // tail round counted
    }
  }
}

TEST(Figures, Table2MatchesClusterProperties) {
  const ResultTable table = run_figure(table2_sweep(), {.threads = 2});
  ASSERT_EQ(table.size(), 4u);
  double ratio = 0.0;
  table.find({{"cluster", "Cluster-A"}})
      ->value("heterogeneity_ratio", ratio);
  EXPECT_DOUBLE_EQ(ratio, 3.0);
}

/// 64-bit FNV-1a of `text`'s bytes.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(Figures, Fig4EmitsIdenticalCurvesAtAnyThreadCount) {
  // Thread-count identity alone would pass a change that shifts every
  // training byte the same way at any thread count, so the serial CSVs are
  // also pinned to FNV-1a hashes of their known-good text. A deliberate
  // change to the training arithmetic re-pins them from the CSV the failure
  // prints.
  const struct {
    FigureSweep figure;
    std::uint64_t pinned;
  } presets[] = {{fig4_sweep(8), 0x8de413c7ddcf8f74ULL},
                 {fig4_noniid_sweep(8), 0x9d450daa5caa92e7ULL}};
  for (const auto& [figure, pinned] : presets) {
    const std::string serial = csv_of(run_figure(figure, {.threads = 1}));
    const std::string parallel = csv_of(run_figure(figure, {.threads = 3}));
    EXPECT_EQ(serial, parallel) << figure.name;
    EXPECT_NE(serial.find("ssp"), std::string::npos) << figure.name;
    EXPECT_EQ(fnv1a(serial), pinned) << figure.name << ":\n" << serial;
  }
}

TEST(Figures, Fig4SspPaysTheCellsCommLatency) {
  // Every fig4 series trains from the cell's ExperimentConfig, so a grid
  // with a per-message latency slows SSP as it slows the coded BSP series.
  FigureSweep figure = fig4_sweep(4);
  figure.grid.custom_axes = {{"series", {4.0}, {"ssp"}}};
  const auto ssp_final_time = [&figure](double latency) {
    figure.grid.sim.comm_latency = latency;
    const ResultTable table = run_figure(figure, {.threads = 1});
    const ResultRow* row = table.find({{"series", "ssp"}});
    double time = 0.0;
    EXPECT_TRUE(row != nullptr && row->value("final_time", time));
    return time;
  };
  const double without = ssp_final_time(0.0);
  EXPECT_GT(ssp_final_time(0.05), without);
}

}  // namespace
}  // namespace hgc::exec
