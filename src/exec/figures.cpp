#include "exec/figures.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "ml/dataset.hpp"
#include "ml/model.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "net/network.hpp"
#include "runtime/sim_trainer.hpp"
#include "runtime/ssp_trainer.hpp"
#include "scenario/dsl.hpp"
#include "sim/adaptive.hpp"
#include "sim/experiment.hpp"
#include "sim/iteration.hpp"
#include "sim/layerwise.hpp"
#include "util/args.hpp"
#include "util/checked_cast.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace hgc::exec {

namespace {

/// Curve points → flat metrics (t<i>, loss<i>), plus the final summary.
void emit_trace(const LossTrace& trace, CellResult& result) {
  for (std::size_t i = 0; i < trace.points.size(); ++i) {
    const std::string index = std::to_string(i);
    result.metrics.emplace_back("t" + index, trace.points[i].time);
    result.metrics.emplace_back("loss" + index, trace.points[i].loss);
  }
  result.metrics.emplace_back("final_time", trace.total_time());
  result.metrics.emplace_back("final_loss", trace.final_loss());
}

}  // namespace

ResultTable run_figure(const FigureSweep& figure, const SweepOptions& opts) {
  return figure.fn ? run_sweep(figure.grid, figure.fn, opts)
                   : run_sweep(figure.grid, opts);
}

SweepGrid fig2_grid(std::size_t s, std::size_t iterations) {
  SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = paper_schemes();
  grid.s_values = {s};
  grid.iterations = iterations;
  grid.models.clear();
  for (double factor : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    StragglerAxis axis;
    axis.label = TablePrinter::num(factor, 1) + " x ideal";
    axis.delay_factor = factor;
    axis.fluctuation_sigma = 0.02;
    grid.models.push_back(axis);
  }
  StragglerAxis fault;
  fault.label = "fault (inf)";
  fault.fault = true;
  fault.fluctuation_sigma = 0.02;
  grid.models.push_back(fault);
  return grid;
}

SweepGrid fig3_grid(std::size_t iterations) {
  SweepGrid grid;
  grid.clusters = {cluster_b(), cluster_c(), cluster_d()};
  grid.schemes = paper_schemes();
  grid.iterations = iterations;
  StragglerAxis model;
  model.num_stragglers = 1;
  model.delay_factor = 4.0;
  model.fluctuation_sigma = 0.05;
  grid.models = {model};
  return grid;
}

SweepGrid fig5_grid(std::size_t iterations) {
  SweepGrid grid;
  grid.clusters = paper_clusters();
  grid.schemes = paper_schemes();
  grid.iterations = iterations;
  StragglerAxis straggler;
  straggler.num_stragglers = 1;
  straggler.delay_factor = 2.0;
  straggler.fluctuation_sigma = 0.05;
  grid.models = {straggler};
  return grid;
}

FigureSweep fig4_sweep(std::size_t iterations) {
  FigureSweep figure;
  figure.name = "fig4";
  figure.description =
      "training loss vs time on Cluster-C: coded BSP schemes + SSP";
  SweepGrid& grid = figure.grid;
  grid.clusters = {cluster_c()};
  grid.schemes = {SchemeKind::kNaive};  // placeholder; series is the axis
  grid.iterations = iterations;
  StragglerAxis straggler;
  straggler.num_stragglers = 1;
  straggler.delay_factor = 2.0;
  straggler.fluctuation_sigma = 0.05;
  grid.models = {straggler};
  grid.custom_axes = {{"series",
                       {0.0, 1.0, 2.0, 3.0, 4.0},
                       {"naive", "cyclic", "heter-aware", "group-based",
                        "ssp"}}};

  // One dataset shared read-only by every cell, exactly as the bench builds
  // it; regenerating per cell would be deterministic too, just wasteful.
  Rng data_rng(11);
  auto data = std::make_shared<const Dataset>(
      make_synthetic_cifar10(1024, data_rng, 32));
  figure.fn = [data](const Cell& cell) {
    SoftmaxRegression model(data->dim(), data->num_classes);
    const std::size_t series =
        static_cast<std::size_t>(cell.custom.at(0));
    const std::size_t iters = cell.experiment.iterations;
    const std::size_t record_every =
        std::max<std::size_t>(1, iters / 8);
    CellResult result;
    if (series < 4) {
      const BspTrainingConfig config{cell.experiment, 0.4, record_every};
      const auto bsp = train_bsp_coded(paper_schemes()[series],
                                       *cell.cluster, model, *data, config);
      emit_trace(bsp.trace, result);
      result.metrics.emplace_back(
          "failed_iters", static_cast<double>(bsp.failed_iterations));
    } else {
      const SspTrainingConfig config{cell.experiment, 0.4, record_every, 3};
      const auto ssp = train_ssp(*cell.cluster, model, *data, config);
      emit_trace(ssp.trace, result);
      result.metrics.emplace_back("failed_iters", 0.0);
    }
    return result;
  };
  return figure;
}

FigureSweep fig4_noniid_sweep(std::size_t iterations) {
  FigureSweep figure;
  figure.name = "fig4_noniid";
  figure.description =
      "final loss on label-sorted shards (Cluster-A): coded BSP vs the "
      "approximate baselines";
  SweepGrid& grid = figure.grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kHeterAware};
  grid.iterations = iterations;
  StragglerAxis none;  // label-sorted shards are the only handicap here
  none.num_stragglers = 0;
  grid.models = {none};
  grid.custom_axes = {{"series",
                       {0.0, 1.0, 2.0},
                       {"heter-aware (coded BSP)", "ssp",
                        "ignore-stragglers [35,36]"}}};

  Rng noniid_rng(13);
  auto sorted = std::make_shared<const Dataset>(
      sort_by_label(make_gaussian_classification(256, 16, 4, 2.5,
                                                 noniid_rng)));
  figure.fn = [sorted](const Cell& cell) {
    SoftmaxRegression model(sorted->dim(), sorted->num_classes);
    const std::size_t series =
        static_cast<std::size_t>(cell.custom.at(0));
    const std::size_t iters = cell.experiment.iterations;
    const std::size_t record_every = std::max<std::size_t>(1, iters / 8);
    const BspTrainingConfig bsp_config{cell.experiment, 0.4, record_every};
    CellResult result;
    if (series == 0) {
      const auto bsp = train_bsp_coded(SchemeKind::kHeterAware,
                                       *cell.cluster, model, *sorted,
                                       bsp_config);
      result.metrics.emplace_back("final_loss", bsp.trace.final_loss());
    } else if (series == 1) {
      const SspTrainingConfig config{cell.experiment, 0.4, record_every, 3};
      const auto ssp = train_ssp(*cell.cluster, model, *sorted, config);
      result.metrics.emplace_back("final_loss", ssp.trace.final_loss());
    } else {
      const auto dropped = train_bsp_ignore_stragglers(
          *cell.cluster, model, *sorted, bsp_config);
      result.metrics.emplace_back("final_loss",
                                  dropped.trace.final_loss());
    }
    return result;
  };
  return figure;
}

FigureSweep table2_sweep() {
  FigureSweep figure;
  figure.name = "table2";
  figure.description = "Table II derived quantities per cluster";
  SweepGrid& grid = figure.grid;
  grid.clusters = paper_clusters();
  grid.schemes = {SchemeKind::kNaive};  // unused by the cell body
  grid.iterations = 1;
  figure.fn = [](const Cell& cell) {
    const Cluster& cluster = *cell.cluster;
    CellResult result;
    result.metrics.emplace_back("m", static_cast<double>(cluster.size()));
    result.metrics.emplace_back("total_throughput",
                                cluster.total_throughput());
    result.metrics.emplace_back("min_throughput", cluster.min_throughput());
    result.metrics.emplace_back("heterogeneity_ratio",
                                cluster.heterogeneity_ratio());
    result.metrics.emplace_back(
        "exact_k", static_cast<double>(exact_partition_count(cluster, 1)));
    result.metrics.emplace_back("ideal_time",
                                ideal_iteration_time(cluster, 1));
    return result;
  };
  return figure;
}

SweepGrid sigma_grid(std::size_t iterations, std::size_t num_seeds) {
  SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kCyclic, SchemeKind::kHeterAware,
                  SchemeKind::kGroupBased};
  grid.sigmas = {0.0, 0.1, 0.2, 0.3, 0.5};
  grid.seeds.clear();
  for (std::uint64_t seed = 1; seed <= num_seeds; ++seed)
    grid.seeds.push_back(seed);
  grid.iterations = iterations;
  StragglerAxis model;
  model.fluctuation_sigma = 0.05;
  model.num_stragglers = 0;
  grid.models = {model};
  return grid;
}

FigureSweep loss_sweep(std::size_t iterations) {
  FigureSweep figure;
  figure.name = "loss";
  figure.description =
      "per-message drop probability over real wire frames (Cluster-A, "
      "s = 2)";
  SweepGrid& grid = figure.grid;
  grid.clusters = {cluster_a()};
  grid.schemes = paper_schemes();
  grid.s_values = {2};
  grid.iterations = iterations;
  grid.custom_axes = {{"drop", {0.0, 0.02, 0.05, 0.10, 0.20}, {}}};
  figure.fn = [](const Cell& cell) {
    const Cluster& cluster = *cell.cluster;
    const std::size_t m = cluster.size();
    const std::size_t k = cell.experiment.k;
    const double drop = cell.custom.at(0);
    // Tiny synthetic partition gradients (dimension 8) — the cell measures
    // protocol behaviour, not FLOPs.
    Rng grad_rng(23);
    std::vector<Vector> grads(k);
    for (auto& g : grads) {
      g.resize(8);
      for (double& v : g) v = grad_rng.normal();
    }
    Rng scheme_rng(29);
    const auto scheme = make_scheme(cell.scheme, cluster.throughputs(), k,
                                    cell.experiment.s, scheme_rng);
    std::vector<Vector> local = grads;
    local.resize(scheme->num_partitions(), Vector(8, 0.1));
    SimulatedNetwork network(m + 1, {0.001, 1e8, drop}, Rng(31));
    // Real wire frames over the lossy network.
    engine::NetworkLink link(network);
    engine::RoundOptions options{.partition_gradients = &local};
    StragglerModel model;
    model.fluctuation_sigma = 0.02;
    Rng condition_rng(37);
    CellResult result;
    RunningStats times;
    std::size_t failures = 0;
    const std::size_t iters = cell.experiment.iterations;
    for (std::size_t iter = 0; iter < iters; ++iter) {
      const auto cond = model.draw(m, condition_rng);
      options.iteration = iter;
      const auto round =
          engine::run_round(*scheme, cluster, cond, link, options);
      if (round.decoded)
        times.add(round.time);
      else
        ++failures;
    }
    result.stats.emplace_back("time", times);
    result.metrics.emplace_back(
        "fail_pct", 100.0 * static_cast<double>(failures) /
                        static_cast<double>(iters));
    return result;
  };
  return figure;
}

FigureSweep layerwise_sweep(std::size_t iterations) {
  FigureSweep figure;
  figure.name = "layerwise";
  figure.description =
      "layer-wise coded sends: transfer/compute ratio x layer count "
      "(Cluster-A, heter-aware)";
  SweepGrid& grid = figure.grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kHeterAware};
  grid.k_values = {24};
  grid.iterations = iterations;
  grid.custom_axes = {
      {"transfer", {0.25, 0.5, 1.0, 2.0}, {}},
      {"layers", {1.0, 2.0, 4.0, 8.0, 32.0}, {"L=1", "L=2", "L=4", "L=8",
                                              "L=32"}}};
  figure.fn = [](const Cell& cell) {
    const Cluster& cluster = *cell.cluster;
    Rng scheme_rng(19);
    const auto scheme =
        make_scheme(cell.scheme, cluster.throughputs(), cell.experiment.k,
                    cell.experiment.s, scheme_rng);
    const double t0 = ideal_iteration_time(cluster, cell.experiment.s);
    LayerwiseParams params;
    params.layer_fractions =
        equal_layers(static_cast<std::size_t>(cell.custom.at(1)));
    params.full_transfer_time = cell.custom.at(0) * t0;
    params.per_message_latency = 0.002 * t0;
    StragglerModel model;
    model.num_stragglers = 1;
    model.delay_seconds = 2.0 * t0;
    model.fluctuation_sigma = 0.05;
    Rng condition_rng(101);
    RunningStats stats;
    for (std::size_t iter = 0; iter < cell.experiment.iterations; ++iter) {
      const auto cond = model.draw(cluster.size(), condition_rng);
      const auto sim =
          simulate_layerwise_iteration(*scheme, cluster, cond, params);
      if (sim.decoded) stats.add(sim.time);
    }
    CellResult result;
    result.stats.emplace_back("time", stats);
    return result;
  };
  return figure;
}

FigureSweep adaptive_sweep(std::size_t iterations) {
  FigureSweep figure;
  figure.name = "adaptive";
  figure.description =
      "adaptive re-coding: cold start and drift, static vs adaptive "
      "(Cluster-A, heter-aware)";
  SweepGrid& grid = figure.grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kHeterAware};
  grid.iterations = iterations;
  grid.custom_axes = {{"phase", {0.0, 1.0}, {"cold-start", "drift"}},
                      {"mode", {0.0, 1.0}, {"static", "adaptive"}}};
  figure.fn = [](const Cell& cell) {
    const Cluster& cluster = *cell.cluster;
    const std::size_t iters = cell.experiment.iterations;
    ExperimentConfig config;
    config.iterations = iters;
    config.k = 48;
    config.seed = cell.experiment.seed;
    AdaptivePolicy policy;
    policy.recode_every = cell.custom.at(1) > 0.5 ? 10 : 0;
    engine::ScenarioScript script;
    if (cell.custom.at(0) > 0.5) {
      // Warm start; the fastest worker slows 4x once a third of the ideal
      // run has elapsed on the virtual clock.
      const double ideal = ideal_iteration_time(cluster, config.s);
      policy.initial_estimates = cluster.throughputs();
      config.model.num_stragglers = 1;
      config.model.delay_seconds = 4.0 * ideal;
      const double at = static_cast<double>(iters / 3) * ideal;
      script.drifts = {{cluster.size() - 1, 1.0, 0.25, at, at}};
    }
    AdaptiveRecoder recoder(policy, cluster.size());
    const SchemeSummary run =
        run_experiment(cell.scheme, cluster, config, script, recoder.hook());
    CellResult result;
    // Five windows partitioning [0, iters); NaN where none decoded.
    for (std::size_t i = 0; i < 5; ++i)
      result.metrics.emplace_back(
          "w" + std::to_string(i),
          window_mean(recoder.iteration_times(), i * iters / 5,
                      (i + 1) * iters / 5));
    result.metrics.emplace_back("recodes",
                                static_cast<double>(run.reinstantiations));
    result.metrics.emplace_back("failures",
                                static_cast<double>(run.failures));
    return result;
  };
  return figure;
}

SweepGrid scenarios_grid(std::size_t iterations) {
  SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = paper_schemes();
  grid.iterations = iterations;
  StragglerAxis straggler;
  straggler.num_stragglers = 1;
  straggler.delay_factor = 2.0;
  straggler.fluctuation_sigma = 0.05;
  grid.models = {straggler};
  ScenarioSpec churn;
  churn.name = "churn";
  churn.kind = ScenarioKind::kChurn;
  churn.churn_events = demo_churn_events(grid.clusters[0], iterations, 1);
  ScenarioSpec trace;
  trace.name = "trace";
  trace.kind = ScenarioKind::kTraceReplay;
  trace.trace = demo_delay_trace(grid.clusters[0], 64, 1);
  grid.scenarios = {ScenarioSpec{}, churn, trace};
  return grid;
}

std::vector<engine::ChurnEvent> demo_churn_events(const Cluster& cluster,
                                                  std::size_t iterations,
                                                  std::size_t s) {
  const double horizon =
      static_cast<double>(iterations) * ideal_iteration_time(cluster, s);
  engine::ChurnEvent leave;
  leave.time = 0.25 * horizon;
  leave.join = false;
  leave.worker = cluster.size() - 1;
  engine::ChurnEvent join;
  join.time = 0.6 * horizon;
  join.join = true;
  join.spec = WorkerSpec{8, 8.0};
  return {leave, join};
}

engine::DelayTrace demo_delay_trace(const Cluster& cluster, std::size_t rows,
                                    std::size_t s) {
  const double ideal = ideal_iteration_time(cluster, s);
  const std::size_t m = cluster.size();
  std::vector<std::vector<double>> data;
  data.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(m, 0.0);
    const std::size_t victim = r % m;
    if (r % 7 == 3)
      row[victim] = -1.0;  // fail-stop
    else if (r % 2 == 0)
      row[victim] = 2.0 * ideal;
    else
      row[victim] = 0.5 * ideal;
    data.push_back(std::move(row));
  }
  return engine::DelayTrace(std::move(data));
}

BenchArgs parse_bench_args(int argc, const char* const* argv,
                           std::size_t default_iters) {
  Args args(argc, argv);
  BenchArgs parsed;
  // checked_cast: a negative --iters/--threads throws instead of wrapping
  // into an absurd size_t.
  parsed.iterations = checked_cast<std::size_t>(
      args.get_int("iters", static_cast<std::int64_t>(default_iters)));
  parsed.options.threads =
      checked_cast<std::size_t>(args.get_int("threads", 0));
  args.check_unused();
  return parsed;
}

std::vector<std::string> figure_names() {
  return {"fig2",  "fig3",      "fig4",     "fig4_noniid", "fig5",
          "table2", "sigma",    "loss",     "layerwise",   "adaptive",
          "scenarios"};
}

FigureSweep make_figure(const std::string& name, std::size_t iterations) {
  const auto iters = [iterations](std::size_t fallback) {
    return iterations == 0 ? fallback : iterations;
  };
  if (name == "fig2") {
    // Both panels in one grid: s becomes an axis.
    FigureSweep figure;
    figure.name = name;
    figure.description = "Fig. 2: time/iter vs injected delay (Cluster-A)";
    figure.grid = fig2_grid(1, iters(300));
    figure.grid.s_values = {1, 2};
    return figure;
  }
  if (name == "fig3")
    return {name, "Fig. 3: scheme comparison across clusters B/C/D",
            fig3_grid(iters(200)), nullptr};
  if (name == "fig4") return fig4_sweep(iters(80));
  if (name == "fig4_noniid") return fig4_noniid_sweep(iters(80));
  if (name == "fig5")
    return {name, "Fig. 5: computing-resource usage per scheme",
            fig5_grid(iters(200)), nullptr};
  if (name == "table2") return table2_sweep();
  if (name == "sigma")
    return {name, "ablation: throughput-estimation error x scheme",
            sigma_grid(iters(150), 10), nullptr};
  if (name == "loss") return loss_sweep(iters(300));
  if (name == "layerwise") return layerwise_sweep(iters(200));
  if (name == "adaptive") return adaptive_sweep(iters(300));
  if (name == "scenarios")
    return {name,
            "scenarios (static/churn/trace) as a sweep axis",
            scenarios_grid(iters(150)), nullptr};
  throw std::invalid_argument("unknown figure: " + name);
}

// --- Grid-spec parsing --------------------------------------------------

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

/// Finite number for grid key `key`. strtod also reads "inf" and "nan";
/// an infinite delay or noise level would run and print nan or plausible
/// rows, so both are rejected (fail-stop is spelled fault=1).
double parse_double(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(v))
    throw std::invalid_argument("grid spec key '" + key +
                                "' wants a finite number, got: " + text);
  return v;
}

std::vector<double> parse_doubles(const std::string& key,
                                  const std::string& text) {
  std::vector<double> out;
  for (const std::string& part : split(text, ','))
    out.push_back(parse_double(key, part));
  return out;
}

/// Non-negative integral value for grid key `key`. A plain static_cast here
/// used to truncate `s=1.5` to 1 and wrap `s=-1` / `k=-2` / `iters=-5` to
/// huge size_t values — both silently.
std::size_t parse_size(const std::string& key, const std::string& text) {
  const double v = parse_double(key, text);
  if (v < 0.0 || v != std::floor(v) || v > 9007199254740992.0 /* 2^53 */)
    throw std::invalid_argument("grid spec key '" + key +
                                "' wants a non-negative integer, got: " +
                                text);
  return static_cast<std::size_t>(v);
}

std::vector<std::size_t> parse_sizes(const std::string& key,
                                     const std::string& text) {
  std::vector<std::size_t> out;
  for (const std::string& part : split(text, ','))
    out.push_back(parse_size(key, part));
  return out;
}

std::vector<std::uint64_t> parse_seed_list(const std::string& key,
                                           const std::string& text) {
  std::vector<std::uint64_t> out;
  for (const std::string& part : split(text, ',')) {
    const std::size_t dots = part.find("..");
    if (dots != std::string::npos) {
      const auto lo = parse_size(key, part.substr(0, dots));
      const auto hi = parse_size(key, part.substr(dots + 2));
      HGC_REQUIRE(lo <= hi, "seed range must be lo..hi");
      for (std::uint64_t seed = lo; seed <= hi; ++seed)
        out.push_back(seed);
    } else {
      out.push_back(parse_size(key, part));
    }
  }
  return out;
}

Cluster cluster_by_name(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (key == "a" || key == "cluster-a") return cluster_a();
  if (key == "b" || key == "cluster-b") return cluster_b();
  if (key == "c" || key == "cluster-c") return cluster_c();
  if (key == "d" || key == "cluster-d") return cluster_d();
  // Beyond-paper scale preset: "scale-<workers>" (or "scale<workers>")
  // builds the synthetic heterogeneous cluster the sparse coding layer
  // exists for, e.g. scale-10000 for the CI 10k churn smoke.
  if (key.rfind("scale", 0) == 0) {
    std::string digits = key.substr(5);
    if (!digits.empty() && digits.front() == '-') digits = digits.substr(1);
    if (!digits.empty() &&
        std::all_of(digits.begin(), digits.end(),
                    [](unsigned char c) { return std::isdigit(c); })) {
      std::size_t workers = 0;
      const char* const end = digits.data() + digits.size();
      if (std::from_chars(digits.data(), end, workers).ec != std::errc())
        throw std::invalid_argument(
            "grid spec key 'clusters': worker count out of range: " + name);
      return scale_cluster(workers);
    }
  }
  throw std::invalid_argument("unknown cluster: " + name);
}

}  // namespace

SweepGrid parse_grid_spec(const std::string& spec) {
  SweepGrid grid;
  std::vector<double> delay_factors, delays;
  bool fault = false;
  double fluct = 0.0;
  std::size_t stragglers = kMatchS;
  bool any_model_key = false;
  std::vector<std::string> scenario_names;
  std::vector<std::string> scenario_files;
  std::string trace_path;

  for (const std::string& entry : split(spec, ';')) {
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("grid spec entry needs key=value: " +
                                  entry);
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "clusters" || key == "cluster") {
      grid.clusters.clear();
      for (const std::string& name : split(value, ','))
        grid.clusters.push_back(cluster_by_name(name));
    } else if (key == "schemes" || key == "scheme") {
      grid.schemes.clear();
      for (const std::string& name : split(value, ','))
        grid.schemes.push_back(parse_scheme_kind(name));
    } else if (key == "s") {
      grid.s_values = parse_sizes(key, value);
    } else if (key == "k") {
      grid.k_values = parse_sizes(key, value);
    } else if (key == "sigmas" || key == "sigma") {
      grid.sigmas = parse_doubles(key, value);
    } else if (key == "seeds" || key == "seed") {
      grid.seeds = parse_seed_list(key, value);
    } else if (key == "iters" || key == "iterations") {
      grid.iterations = parse_size(key, value);
    } else if (key == "stragglers") {
      any_model_key = true;
      stragglers = value == "s" ? kMatchS : parse_size(key, value);
    } else if (key == "delay_factors" || key == "delay_factor") {
      any_model_key = true;
      delay_factors = parse_doubles(key, value);
    } else if (key == "delays" || key == "delay") {
      any_model_key = true;
      delays = parse_doubles(key, value);
    } else if (key == "fault") {
      any_model_key = true;
      fault = parse_double(key, value) != 0.0;
    } else if (key == "fluct") {
      any_model_key = true;
      fluct = parse_double(key, value);
    } else if (key == "latency") {
      grid.sim.comm_latency = parse_double(key, value);
    } else if (key == "scenarios" || key == "scenario") {
      scenario_names = split(value, ',');
    } else if (key == "scenario_file" || key == "scenario_files") {
      // Accumulates across repeats of the key: each file is one more point
      // on the scenario axis.
      for (const std::string& path : split(value, ','))
        scenario_files.push_back(path);
    } else if (key == "trace") {
      trace_path = value;
    } else {
      throw std::invalid_argument("unknown grid spec key: " + key);
    }
  }

  if (any_model_key) {
    grid.models.clear();
    const auto base = [&]() {
      StragglerAxis axis;
      axis.num_stragglers = stragglers;
      axis.fluctuation_sigma = fluct;
      return axis;
    };
    for (double factor : delay_factors) {
      StragglerAxis axis = base();
      axis.delay_factor = factor;
      grid.models.push_back(axis);
    }
    for (double seconds : delays) {
      StragglerAxis axis = base();
      axis.delay_seconds = seconds;
      grid.models.push_back(axis);
    }
    if (fault) {
      StragglerAxis axis = base();
      axis.fault = true;
      grid.models.push_back(axis);
    }
    if (grid.models.empty()) {
      StragglerAxis axis = base();
      if (axis.num_stragglers == kMatchS) axis.num_stragglers = 0;
      grid.models.push_back(axis);
    }
  }

  if (!scenario_names.empty()) {
    // Churn schedules and delay traces are bound to one concrete cluster
    // (event times scale with its ideal iteration time, trace columns with
    // its worker count) — reject grids that would silently run cluster A's
    // schedule on cluster B.
    const bool engine_scenarios =
        std::any_of(scenario_names.begin(), scenario_names.end(),
                    [](const std::string& n) { return n != "static"; });
    if (engine_scenarios && grid.clusters.size() > 1)
      throw std::invalid_argument(
          "churn/trace scenarios support a single cluster per grid spec");
    const bool names_trace =
        std::find(scenario_names.begin(), scenario_names.end(), "trace") !=
        scenario_names.end();
    // A trace= path is only consumed by the 'trace' scenario; dropping it
    // on the floor would replay the demo schedule while the operator
    // believes their recorded file is driving the run.
    if (!trace_path.empty() && !names_trace)
      throw std::invalid_argument(
          "trace=" + trace_path +
          " has no effect: the scenarios= list does not include 'trace'");
    // The demo churn schedule and the demo trace are derived from a single
    // s value (their horizon/delays scale with ideal_iteration_time); a
    // multi-s grid would silently replay the first s's schedule in every
    // other s's cells.
    const bool demo_schedule =
        std::find(scenario_names.begin(), scenario_names.end(), "churn") !=
            scenario_names.end() ||
        (names_trace && trace_path.empty());
    if (demo_schedule && grid.s_values.size() > 1)
      throw std::invalid_argument(
          "scenarios=churn/trace builds its demo schedule from one s "
          "value, but the grid has " +
          std::to_string(grid.s_values.size()) +
          " — use a single s, point trace= at a recorded file, or author "
          "the scenario as a scenario_file=");
    grid.scenarios.clear();
    for (const std::string& name : scenario_names) {
      ScenarioSpec scenario;
      scenario.name = name;
      if (name == "static") {
        scenario.kind = ScenarioKind::kStatic;
      } else if (name == "churn") {
        scenario.kind = ScenarioKind::kChurn;
        scenario.churn_events = demo_churn_events(
            grid.clusters.front(), grid.iterations, grid.s_values.front());
      } else if (name == "trace") {
        scenario.kind = ScenarioKind::kTraceReplay;
        scenario.trace =
            trace_path.empty()
                ? demo_delay_trace(grid.clusters.front(), 64,
                                   grid.s_values.front())
                : engine::load_delay_trace_csv(trace_path);
      } else {
        throw std::invalid_argument("unknown scenario: " + name);
      }
      grid.scenarios.push_back(std::move(scenario));
    }
  } else if (!trace_path.empty()) {
    if (!scenario_files.empty())
      throw std::invalid_argument(
          "trace=" + trace_path +
          " has no effect: the scenario axis comes from scenario_file=; "
          "add scenarios=trace or splice the trace inside the scenario "
          "file");
    if (grid.clusters.size() > 1)
      throw std::invalid_argument(
          "trace replay supports a single cluster per grid spec");
    ScenarioSpec scenario;
    scenario.name = "trace";
    scenario.kind = ScenarioKind::kTraceReplay;
    scenario.trace = engine::load_delay_trace_csv(trace_path);
    grid.scenarios = {std::move(scenario)};
  }

  append_scenario_files(grid, scenario_files,
                        /*axis_is_explicit=*/!scenario_names.empty());
  return grid;
}

ScenarioSpec load_scenario_spec(const std::string& path) {
  ScenarioSpec spec;
  spec.name = scenario::scenario_name(path);
  spec.kind = ScenarioKind::kScript;
  spec.script = scenario::load_scenario_file(path);
  return spec;
}

void append_scenario_files(SweepGrid& grid,
                           const std::vector<std::string>& paths,
                           bool axis_is_explicit) {
  if (paths.empty()) return;
  if (grid.clusters.size() > 1)
    throw std::invalid_argument(
        "scenario files support a single cluster per grid (each declares "
        "one worker count)");
  if (!axis_is_explicit && grid.scenarios.size() == 1 &&
      grid.scenarios.front().kind == ScenarioKind::kStatic &&
      grid.scenarios.front().name == "static")
    grid.scenarios.clear();
  for (const std::string& path : paths) {
    ScenarioSpec spec = load_scenario_spec(path);
    if (spec.script.workers != grid.clusters.front().size())
      throw std::invalid_argument(
          path + " declares " + std::to_string(spec.script.workers) +
          " workers but " + grid.clusters.front().name() + " has " +
          std::to_string(grid.clusters.front().size()));
    grid.scenarios.push_back(std::move(spec));
  }
}

}  // namespace hgc::exec
