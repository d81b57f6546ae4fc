// hgc_perfbench — the repository benchmark binary.
//
// Runs one or more named workloads against the library's public API and
// prints, per workload, a human-readable report followed by one JSON record
// line. perfbench/run.py builds this binary (Release, from source) and turns
// the record into the benchmark's result line; see perfbench/README.md.
//
//   hgc_perfbench --workload paper --seed 1 --seconds 10 --trace 0
//   hgc_perfbench --workload paper,scale10k,train --seed 1 --seconds 10
//   hgc_perfbench --list-metrics
//   hgc_perfbench --describe --workload scale10k --seed 1
//
// Every workload is a batch job (closed loop, no arrivals) run on a sweep
// pool of min(4, nproc) threads. One run:
//   1. set-up, 5 times and again after every sweep (setup_s = median):
//      generate the inputs from the seed, build and expand the grid, and
//      construct the static cells' schemes into a SchemeCache the sweeps
//      then reuse;
//   2. a serial, cache-off reference sweep with the metrics registry on —
//      the byte-identity reference, the workload's paper checks, and the
//      simulated-round count;
//   3. --trace 0: timed sweeps (sweep + CSV export, observability off)
//      until --seconds have passed; every sweep's CSV must equal the
//      reference byte for byte;
//      --trace 1: alternating untraced and traced sweeps of the traced-size
//      grid; the per-layer metrics come from the spans and counters the
//      library already emits, read back through its public obs API.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/scheme_cache.hpp"
#include "exec/figures.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

#ifndef HGC_PERFBENCH_BUILD_TYPE
#define HGC_PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace hgc;

/// Set-ups made before the first sweep; each timed sweep adds one more, so
/// the set-up samples spread over the whole run like the sweep samples do.
constexpr std::size_t kSetupRepeats = 5;
/// Per-cell decoding-coefficient LRU capacity, as hgc_sweep --cache uses.
constexpr std::size_t kDecodingCacheCapacity = 256;
/// Per-thread trace buffer cap for traced sweeps. The default (1M events)
/// drops events on these grids; the traced grids are sized to fit this.
constexpr std::size_t kTraceBufferCapacity = std::size_t{1} << 24;

// ---------------------------------------------------------------- metrics --

enum class Mode { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  Mode mode;
};

/// Every metric this binary emits, in emission order. BENCHMARK.json lists
/// the same names and units; perfbench/run.py rejects a record that differs.
constexpr MetricSpec kMetrics[] = {
    {"rounds_per_s", "1/s", Mode::kEndToEnd},
    {"cpu_s", "s", Mode::kEndToEnd},
    {"setup_s", "s", Mode::kEndToEnd},
    {"peak_rss_mb", "MB", Mode::kEndToEnd},
    {"exec.expand_s", "s", Mode::kPerLayer},
    {"exec.cell_s.p50", "s", Mode::kPerLayer},
    {"exec.cell_s.max", "s", Mode::kPerLayer},
    {"exec.pool_busy_ratio", "ratio", Mode::kPerLayer},
    {"exec.export_s", "s", Mode::kPerLayer},
    {"core.construct_s", "s", Mode::kPerLayer},
    {"core.construct_calls", "count", Mode::kPerLayer},
    {"scheme_cache.hit_ratio", "ratio", Mode::kPerLayer},
    {"engine.rounds", "count", Mode::kPerLayer},
    {"engine.events_per_round", "events/round", Mode::kPerLayer},
    {"engine.reinstantiations", "count", Mode::kPerLayer},
    {"linalg.lu_factors", "count", Mode::kPerLayer},
    {"linalg.qr_factors", "count", Mode::kPerLayer},
    {"decode.solves", "count", Mode::kPerLayer},
    {"decode.solves_per_round", "solves/round", Mode::kPerLayer},
    {"decode.solve_s", "s", Mode::kPerLayer},
    {"decode.solve_us.p50", "us", Mode::kPerLayer},
    {"decode.solve_us.p99", "us", Mode::kPerLayer},
    {"decode_cache.hit_ratio", "ratio", Mode::kPerLayer},
    {"unattributed_s", "s", Mode::kPerLayer},
    {"unattributed_ratio", "ratio", Mode::kPerLayer},
    {"trace.overhead_ratio", "ratio", Mode::kPerLayer},
    {"trace.dropped_events", "count", Mode::kPerLayer},
};

const MetricSpec& metric_spec(std::string_view name) {
  for (const MetricSpec& spec : kMetrics)
    if (name == spec.name) return spec;
  throw std::logic_error("unknown metric: " + std::string(name));
}

/// Shortest round-trip rendering, the same digits ResultTable exports.
std::string json_number(double v) {
  return exec::ResultTable::format_double(std::isfinite(v) ? v : 0.0);
}

double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

double median_of(std::vector<double> xs) {
  return xs.empty() ? 0.0 : median(xs);
}

// ---------------------------------------------------------------- process --

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set so far of this process image (VmHWM). getrusage's
/// ru_maxrss would do, except that it carries over the peak of the process
/// that exec'd this one (a Python parent, say).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::size_t sweep_threads() {
  return std::min<std::size_t>(4, exec::ThreadPool::default_threads());
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// -------------------------------------------------------------- workloads --

const char* const kWorkloads[] = {"paper", "scale10k", "train"};

/// `count` distinct grid seeds derived from the workload seed.
std::vector<std::uint64_t> seed_axis(std::uint64_t seed, std::size_t count) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 1; i <= count; ++i) seeds.push_back(seed * count + i);
  return seeds;
}

exec::StragglerAxis straggler(const char* label, double delay_factor,
                              bool fault) {
  exec::StragglerAxis axis;
  axis.label = label;
  axis.delay_factor = delay_factor;
  axis.fault = fault;
  axis.fluctuation_sigma = 0.05;
  return axis;
}

/// The paper's evaluation: Table II clusters A-D x the four schemes x
/// s in {1, 2} x {no delay, 2x, 4x ideal delay, fail-stop} x 8 seeds.
exec::FigureSweep paper_workload(std::uint64_t seed, std::size_t iterations) {
  exec::FigureSweep figure;
  figure.name = "paper";
  exec::SweepGrid& grid = figure.grid;
  grid.clusters = paper_clusters();
  grid.schemes = paper_schemes();
  grid.s_values = {1, 2};
  grid.models = {straggler("none", 0.0, false),
                 straggler("2x ideal", 2.0, false),
                 straggler("4x ideal", 4.0, false),
                 straggler("fault", 0.0, true)};
  grid.seeds = seed_axis(seed, 8);
  grid.iterations = iterations;
  grid.root_seed = seed;
  return figure;
}

/// The CI scale10000 grid: four schemes x {static, churn} at 10,000
/// workers, s = 2, 8 rounds per cell.
exec::FigureSweep scale10k_workload(std::uint64_t seed) {
  exec::FigureSweep figure;
  figure.name = "scale10k";
  exec::SweepGrid& grid = figure.grid;
  grid.clusters = {scale_cluster(10000)};
  grid.schemes = paper_schemes();
  grid.s_values = {2};
  grid.models = {straggler("2x ideal", 2.0, false)};
  grid.seeds = {seed};
  grid.iterations = 8;
  grid.root_seed = seed;
  exec::ScenarioSpec churn;
  churn.name = "churn";
  churn.kind = exec::ScenarioKind::kChurn;
  churn.churn_events =
      exec::demo_churn_events(grid.clusters.front(), grid.iterations, 2);
  grid.scenarios = {exec::ScenarioSpec{}, churn};
  return figure;
}

/// The Fig. 4 coded-BSP training preset (Cluster-C, four coded schemes plus
/// SSP, real gradients) over 6 seeds.
exec::FigureSweep train_workload(std::uint64_t seed) {
  exec::FigureSweep figure = exec::fig4_sweep(160);
  figure.name = "train";
  figure.grid.seeds = seed_axis(seed, 6);
  figure.grid.root_seed = seed;
  return figure;
}

/// The workload's grid. A traced paper sweep runs fewer iterations so its
/// trace fits in memory; the other traced grids are the untraced ones.
exec::FigureSweep make_workload(const std::string& name, std::uint64_t seed,
                                bool traced) {
  if (name == "paper") return paper_workload(seed, traced ? 30 : 300);
  if (name == "scale10k") return scale10k_workload(seed);
  if (name == "train") return train_workload(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

// ----------------------------------------------------------------- set-up --

struct Setup {
  exec::FigureSweep figure;
  std::vector<exec::Cell> cells;  ///< points into figure.grid.clusters
  std::unique_ptr<SchemeCache> schemes;
  double seconds = 0.0;
  double expand_seconds = 0.0;
  double construct_seconds = 0.0;
  std::size_t construct_calls = 0;
};

/// Everything before the first round: inputs, grid expansion, and the
/// schemes the static cells will read from the shared cache.
Setup set_up(const std::string& workload, std::uint64_t seed, bool traced) {
  Setup setup;
  const Stopwatch total;
  setup.figure = make_workload(workload, seed, traced);
  setup.cells = exec::expand(setup.figure.grid);
  setup.expand_seconds = total.seconds();

  const Stopwatch construct;
  setup.schemes = std::make_unique<SchemeCache>();
  // Only the built-in body's static cells read the shared cache. Every
  // benchmark grid has estimation sigma 0, so the estimates run_experiment
  // keys the cache on are the true throughputs.
  if (!setup.figure.fn)
    for (const exec::Cell& cell : setup.cells)
      if (setup.figure.grid.scenarios[cell.scenario_index].kind ==
          exec::ScenarioKind::kStatic)
        setup.schemes->get_or_create(
            cell.scheme, cell.cluster->throughputs(),
            resolve_partitions(cell.experiment, cell.cluster->size()),
            cell.experiment.s, cell.experiment.seed);
  setup.construct_seconds = construct.seconds();
  setup.construct_calls = setup.schemes->misses();
  setup.seconds = total.seconds();
  return setup;
}

/// Set-up timings of one run.
struct SetupTimes {
  std::vector<double> seconds, expand_seconds, construct_seconds;

  void add(const Setup& setup) {
    seconds.push_back(setup.seconds);
    expand_seconds.push_back(setup.expand_seconds);
    construct_seconds.push_back(setup.construct_seconds);
  }
};

/// The set-up the run's sweeps use, after kSetupRepeats timed set-ups.
Setup set_up_repeatedly(const std::string& workload, std::uint64_t seed,
                        bool traced, SetupTimes& times) {
  Setup setup = set_up(workload, seed, traced);
  times.add(setup);
  for (std::size_t i = 1; i < kSetupRepeats; ++i)
    times.add(set_up(workload, seed, traced));
  return setup;
}

// ------------------------------------------------------------------ sweep --

struct SweepRun {
  exec::ResultTable table;
  std::string csv;
  double sweep_seconds = 0.0;
  double export_seconds = 0.0;
  double wall_seconds = 0.0;  ///< sweep plus export
  double cpu_seconds = 0.0;
};

SweepRun run_sweep_once(const Setup& setup, const exec::SweepOptions& opts) {
  SweepRun run;
  const double cpu_start = process_cpu_seconds();
  const Stopwatch wall;
  run.table = exec::run_figure(setup.figure, opts);
  run.sweep_seconds = wall.seconds();
  const Stopwatch export_timer;
  std::ostringstream csv;
  run.table.to_csv(csv);
  run.csv = csv.str();
  run.export_seconds = export_timer.seconds();
  run.wall_seconds = wall.seconds();
  run.cpu_seconds = process_cpu_seconds() - cpu_start;
  return run;
}

exec::SweepOptions timed_options(const Setup& setup) {
  exec::SweepOptions opts;
  opts.threads = sweep_threads();
  opts.scheme_cache = setup.schemes.get();
  opts.decoding_cache_capacity = kDecodingCacheCapacity;
  return opts;
}

// ----------------------------------------------------------------- checks --

/// Attempted/failed tally. An attempt is one cell of one checked sweep, or
/// one workload-level check; failures carry a message for the report.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> messages;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (messages.size() < 20) messages.push_back(what);
    }
  }
};

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    lines.push_back(text.substr(0, end));
    if (end == std::string_view::npos) break;
    text.remove_prefix(end + 1);
  }
  return lines;
}

/// One attempt per cell: it fails on an `error:` note or when its CSV line
/// differs from the reference's (a header mismatch fails every cell).
void check_cells(const SweepRun& run, const std::string& reference_csv,
                 const std::string& what, Tally& tally) {
  const auto lines = split_lines(run.csv);
  const auto reference = split_lines(reference_csv);
  const bool header_ok = !lines.empty() && !reference.empty() &&
                         lines.front() == reference.front();
  for (std::size_t i = 0; i < run.table.size(); ++i) {
    const std::string& note = run.table.row(i).note;
    const bool same = header_ok && i + 1 < lines.size() &&
                      i + 1 < reference.size() &&
                      lines[i + 1] == reference[i + 1];
    const bool ok = same && note.rfind("error:", 0) != 0;
    tally.check(ok, ok ? std::string()
                       : what + " cell " + std::to_string(i) +
                             (same ? " note: " + note
                                   : " differs from the reference"));
  }
  tally.check(lines.size() == reference.size(),
              what + " CSV has " + std::to_string(lines.size()) +
                  " lines, the reference " + std::to_string(reference.size()));
}

double row_value(const exec::ResultRow& row, const std::string& column) {
  double value = 0.0;
  if (!row.value(column, value))
    throw std::runtime_error("result row lacks column " + column);
  return value;
}

std::string row_axis(const exec::ResultRow& row, const std::string& axis) {
  const std::string* value = row.axis(axis);
  return value ? *value : std::string();
}

/// Rounds within provisioning decode: a cell without fail-stop faults
/// reports zero undecodable rounds.
void check_no_failures_without_faults(const exec::ResultTable& table,
                                      Tally& tally) {
  for (const exec::ResultRow& row : table.rows())
    if (row_axis(row, "model") != "fault")
      tally.check(row_value(row, "failures") == 0.0,
                  "undecodable rounds without faults in " +
                      row_axis(row, "cluster") + "/" +
                      row_axis(row, "scheme"));
}

/// Theorem 5 ordering: under injected delay, heter-aware's mean iteration
/// time (averaged over seeds) never exceeds cyclic's, per cluster and s.
void check_theorem5(const exec::ResultTable& table, Tally& tally) {
  std::map<std::string, std::array<RunningStats, 2>> by_group;
  for (const exec::ResultRow& row : table.rows()) {
    const std::string model = row_axis(row, "model");
    const std::string scheme = row_axis(row, "scheme");
    if (model == "none" || model == "fault") continue;
    if (scheme != "heter-aware" && scheme != "cyclic") continue;
    const std::string group = row_axis(row, "cluster") + " s=" +
                              row_axis(row, "s") + " " + model;
    by_group[group][scheme == "cyclic" ? 1 : 0].add(row_value(row, "time"));
  }
  for (const auto& [group, stats] : by_group)
    tally.check(stats[0].count() > 0 && stats[1].count() > 0 &&
                    stats[0].mean() <= stats[1].mean(),
                "Theorem 5 ordering (heter-aware <= cyclic) fails on " +
                    group);
}

/// Training reaches the loss target (final loss at most kLossTarget of the
/// initial loss) with no stalled iteration, and the four coded BSP series
/// follow one loss path per seed (BSP exactness).
constexpr double kLossTarget = 0.3;

void check_training(const exec::ResultTable& table, Tally& tally) {
  std::map<std::string, std::vector<double>> coded_losses;
  for (const exec::ResultRow& row : table.rows()) {
    const std::string series = row_axis(row, "series");
    const double final_loss = row_value(row, "final_loss");
    tally.check(final_loss <= kLossTarget * row_value(row, "loss0") &&
                    row_value(row, "failed_iters") == 0.0,
                "training misses the loss target: " + series + " seed " +
                    row_axis(row, "seed"));
    if (series != "ssp")
      coded_losses[row_axis(row, "seed")].push_back(final_loss);
  }
  for (const auto& [seed, losses] : coded_losses) {
    const auto [lo, hi] = std::minmax_element(losses.begin(), losses.end());
    tally.check(*hi - *lo <= 1e-9 * std::abs(*hi),
                "coded BSP series disagree on final loss, seed " + seed);
  }
}

void check_workload(const std::string& workload,
                    const exec::ResultTable& reference, Tally& tally) {
  if (workload == "train") {
    check_training(reference, tally);
    return;
  }
  check_no_failures_without_faults(reference, tally);
  if (workload == "paper") check_theorem5(reference, tally);
}

struct Reference {
  std::string csv;
  double rounds = 0.0;
};

/// Serial, cache-off sweep with the metrics registry on: the CSV every
/// other sweep must reproduce, and the simulated-round count.
Reference run_reference(const std::string& workload, const Setup& setup,
                        Tally& tally) {
  exec::SweepOptions opts;
  opts.threads = 1;
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  SweepRun run = run_sweep_once(setup, opts);
  obs::set_metrics_enabled(false);
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  for (std::size_t i = 0; i < run.table.size(); ++i) {
    const std::string& note = run.table.row(i).note;
    tally.check(note.rfind("error:", 0) != 0,
                "reference cell " + std::to_string(i) + ": " + note);
  }
  check_workload(workload, run.table, tally);
  Reference reference;
  reference.csv = std::move(run.csv);
  reference.rounds = static_cast<double>(snapshot.counter("engine.rounds"));
  tally.check(reference.rounds > 0, "the reference sweep ran no rounds");
  return reference;
}

// ------------------------------------------------------------------ trace --

/// The wall-clock span names the per-layer analysis reads. Order matters:
/// the layers after kCell are the cell's children in the self-time table.
enum SpanKind : std::uint8_t {
  kTask,
  kCell,
  kSchemeConstruct,
  kDecodeSolve,
  kLuFactor,
  kQrFactor,
  kNumSpanKinds
};
constexpr std::array<const char*, kNumSpanKinds> kSpanNames = {
    "task", "cell", "scheme_construct", "decode_solve", "lu_factor",
    "qr_factor"};

struct Span {
  SpanKind kind;
  std::uint32_t tid;
  double start_us;
  double dur_us;
};

/// Reads the wall-clock spans back out of Tracer::write_json, its only
/// export, line by line as the JSON streams through — the full text of a
/// large trace is never held in memory. Virtual-clock events (pid != 1),
/// instants and metadata are skipped.
class WallSpanReader final : public std::streambuf {
 public:
  WallSpanReader() { setp(buffer_.data(), buffer_.data() + buffer_.size()); }

  std::vector<Span> finish() {
    consume();
    parse_line();
    return std::move(spans_);
  }

 protected:
  int_type overflow(int_type ch) override {
    consume();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override {
    consume();
    return 0;
  }

 private:
  void consume() {
    std::string_view data(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    for (std::size_t end; (end = data.find('\n')) != std::string_view::npos;) {
      line_.append(data.substr(0, end));
      parse_line();
      data.remove_prefix(end + 1);
    }
    line_.append(data);
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

  /// The number after `key` in the current line, or false.
  template <typename T>
  bool field(std::string_view key, T& out) const {
    const std::size_t at = line_.find(key);
    if (at == std::string::npos) return false;
    const char* first = line_.data() + at + key.size();
    return std::from_chars(first, line_.data() + line_.size(), out).ec ==
           std::errc();
  }

  void parse_line() {
    static constexpr std::string_view kPrefix = "{\"ph\": \"X\", \"name\": \"";
    const std::size_t at = line_.find(kPrefix);
    if (at != std::string::npos) {
      const std::size_t name_at = at + kPrefix.size();
      const std::size_t name_end = line_.find('"', name_at);
      const std::string_view name =
          std::string_view(line_).substr(name_at, name_end - name_at);
      const auto known =
          std::find(kSpanNames.begin(), kSpanNames.end(), name);
      int pid = 0;
      Span span{};
      if (known != kSpanNames.end() && field("\"pid\": ", pid) && pid == 1 &&
          field("\"tid\": ", span.tid) && field("\"ts\": ", span.start_us) &&
          field("\"dur\": ", span.dur_us)) {
        span.kind = static_cast<SpanKind>(known - kSpanNames.begin());
        spans_.push_back(span);
      }
    }
    line_.clear();
  }

  std::array<char, 1 << 16> buffer_{};
  std::string line_;
  std::vector<Span> spans_;
};

std::vector<Span> read_wall_spans() {
  WallSpanReader reader;
  std::ostream os(&reader);
  obs::Tracer::global().write_json(os);
  os.flush();
  return reader.finish();
}

/// Self time per layer inside cells, from one traced sweep. A span's self
/// time is its duration minus its direct children's; spans nest on the
/// thread that recorded them. by_kind[kCell] is cell time no child span
/// covers (engine loop, sim loop, decoder bookkeeping, ml, encode), and the
/// by_kind entries after it sum with it to cell_total.
struct LayerTimes {
  std::array<double, kNumSpanKinds> self_us{};
  double cell_total_us = 0.0;
  double task_total_us = 0.0;
  std::vector<double> cell_us;
  std::vector<double> decode_solve_us;
};

LayerTimes attribute(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;  // parents before children starting with them
  });
  LayerTimes times;
  struct Open {
    const Span* span;
    double self_us;
    bool in_cell;  ///< the span is a cell or lies inside one
  };
  std::vector<Open> stack;
  const auto close = [&times](const Open& open) {
    if (open.in_cell) times.self_us[open.span->kind] += open.self_us;
  };
  for (const Span& span : spans) {
    while (!stack.empty() &&
           (stack.back().span->tid != span.tid ||
            span.start_us >= stack.back().span->start_us +
                                 stack.back().span->dur_us)) {
      close(stack.back());
      stack.pop_back();
    }
    bool in_cell = span.kind == kCell;
    if (!stack.empty()) {
      stack.back().self_us -= span.dur_us;
      in_cell = in_cell || stack.back().in_cell;
    }
    stack.push_back({&span, span.dur_us, in_cell});
    if (span.kind == kCell) {
      times.cell_total_us += span.dur_us;
      times.cell_us.push_back(span.dur_us);
    } else if (span.kind == kTask) {
      times.task_total_us += span.dur_us;
    } else if (span.kind == kDecodeSolve) {
      times.decode_solve_us.push_back(span.dur_us);
    }
  }
  for (const Open& open : stack) close(open);
  return times;
}

// ----------------------------------------------------------------- report --

struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  Tally tally;
  std::vector<std::pair<std::string, double>> metrics;

  void add(const char* name, double value) {
    metrics.emplace_back(name, value);
  }
};

void print_record(const Record& record) {
  std::ostream& os = std::cout;
  const double error_ratio =
      ratio(static_cast<double>(record.tally.failed),
            static_cast<double>(record.tally.attempted));
  os << "[" << record.workload << "] error_ratio = " << error_ratio
     << " ratio ("
     << record.tally.failed << " failed / " << record.tally.attempted
     << " attempted)\n";
  for (const std::string& message : record.tally.messages)
    os << "[" << record.workload << "]   FAILED: " << message << "\n";
  for (const auto& [name, value] : record.metrics)
    os << "[" << record.workload << "] " << name << " = " << json_number(value)
       << " " << metric_spec(name).unit << "\n";

  os << "{\"workload\": \"" << record.workload << "\", \"seed\": "
     << record.seed << ", \"trace\": " << (record.traced ? 1 : 0)
     << ", \"context\": {\"nproc\": " << exec::ThreadPool::default_threads()
     << ", \"threads\": " << sweep_threads() << ", \"kernel_backend\": \""
     << kernels::backend_name(kernels::active_backend())
     << "\", \"compiler\": \"" << compiler_name() << "\", \"build_type\": \""
     << HGC_PERFBENCH_BUILD_TYPE << "\"}, \"correct\": "
     << (record.tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << record.tally.attempted
     << ", \"failed\": " << record.tally.failed
     << ", \"error_ratio\": " << json_number(error_ratio)
     << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : record.metrics) {
    os << sep << "\"" << name << "\": {\"value\": " << json_number(value)
       << ", \"unit\": \"" << metric_spec(name).unit << "\"}";
    sep = ", ";
  }
  os << "}}\n" << std::flush;
}

void print_layer_table(const std::string& workload, const LayerTimes& times,
                       double traced_s, double untraced_s) {
  std::ostream& os = std::cout;
  os << "[" << workload << "] self time inside cells (last traced sweep):\n";
  for (std::size_t kind = kCell; kind < kNumSpanKinds; ++kind) {
    const char* label =
        kind == kCell ? "unattributed (cell self)" : kSpanNames[kind];
    os << "[" << workload << "]   " << label << ": "
       << json_number(times.self_us[kind] * 1e-6) << " s ("
       << json_number(100.0 * ratio(times.self_us[kind], times.cell_total_us))
       << "%)\n";
  }
  os << "[" << workload << "]   total cell time: "
     << json_number(times.cell_total_us * 1e-6) << " s\n";
  os << "[" << workload << "] tracing overhead: traced sweep "
     << json_number(traced_s) << " s vs untraced " << json_number(untraced_s)
     << " s (medians)\n";
}

// ------------------------------------------------------------------- runs --

Record run_untraced(const std::string& workload, std::uint64_t seed,
                    double seconds) {
  Record record{workload, seed, false, {}, {}};
  SetupTimes setups;
  const Setup setup = set_up_repeatedly(workload, seed, false, setups);
  const Reference reference = run_reference(workload, setup, record.tally);
  // Sampled before the parallel sweeps: their peak depends on which cells
  // happen to overlap in time, and spread by a fifth run to run.
  const double rss_mb = peak_rss_mb();

  std::vector<double> rates, cpu;
  const Stopwatch budget;
  do {
    const SweepRun run = run_sweep_once(setup, timed_options(setup));
    check_cells(run, reference.csv, "timed sweep", record.tally);
    rates.push_back(reference.rounds / run.wall_seconds);
    cpu.push_back(run.cpu_seconds);
    setups.add(set_up(workload, seed, false));
  } while (budget.seconds() < seconds);

  record.add("rounds_per_s", median_of(rates));
  record.add("cpu_s", median_of(cpu));
  record.add("setup_s", median_of(setups.seconds));
  record.add("peak_rss_mb", rss_mb);
  std::cout << "[" << workload << "] " << setup.cells.size() << " cells, "
            << reference.rounds << " rounds per sweep, " << rates.size()
            << " timed sweeps on " << sweep_threads() << " threads, "
            << setups.seconds.size() << " set-ups\n";
  return record;
}

Record run_traced(const std::string& workload, std::uint64_t seed,
                  double seconds) {
  Record record{workload, seed, true, {}, {}};
  SetupTimes setups;
  const Setup setup = set_up_repeatedly(workload, seed, true, setups);
  const Reference reference = run_reference(workload, setup, record.tally);
  obs::set_trace_buffer_capacity(kTraceBufferCapacity);

  std::vector<double> untraced_s, traced_s, export_s, cell_p50, cell_max,
      busy, unattributed, unattributed_share, solve_p50, solve_p99;
  LayerTimes times;
  obs::Snapshot counters;
  std::uint64_t dropped = 0;
  const Stopwatch budget;
  do {
    const SweepRun plain = run_sweep_once(setup, timed_options(setup));
    check_cells(plain, reference.csv, "untraced sweep", record.tally);
    untraced_s.push_back(plain.sweep_seconds);
    export_s.push_back(plain.export_seconds);

    obs::Registry::global().reset();
    obs::Tracer::global().reset();
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    const SweepRun traced = run_sweep_once(setup, timed_options(setup));
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    check_cells(traced, reference.csv, "traced sweep", record.tally);
    traced_s.push_back(traced.sweep_seconds);

    counters = obs::Registry::global().snapshot();
    dropped = std::max(dropped, obs::Tracer::global().dropped());
    times = attribute(read_wall_spans());
    obs::Tracer::global().reset();
    cell_p50.push_back(percentile(times.cell_us, 50.0) * 1e-6);
    cell_max.push_back(*std::max_element(times.cell_us.begin(),
                                         times.cell_us.end()) * 1e-6);
    busy.push_back(ratio(times.task_total_us * 1e-6,
                         traced.sweep_seconds *
                             static_cast<double>(sweep_threads())));
    unattributed.push_back(times.self_us[kCell] * 1e-6);
    unattributed_share.push_back(
        ratio(times.self_us[kCell], times.cell_total_us));
    if (!times.decode_solve_us.empty()) {
      solve_p50.push_back(percentile(times.decode_solve_us, 50.0));
      solve_p99.push_back(percentile(times.decode_solve_us, 99.0));
    }
    setups.add(set_up(workload, seed, true));
  } while (budget.seconds() < seconds);
  record.tally.check(dropped == 0, std::to_string(dropped) +
                                       " trace events dropped");

  const auto count = [&counters](const char* name) {
    return static_cast<double>(counters.counter(name));
  };
  const double rounds = count("engine.rounds");
  const double decoded_rounds = rounds - count("engine.rounds_undecodable");
  const auto histogram = counters.histograms.find("decode.solve_seconds");
  const double solve_s =
      histogram == counters.histograms.end() ? 0.0 : histogram->second.sum;
  record.tally.check(rounds == reference.rounds,
                     "traced sweep counted a different number of rounds");

  record.add("exec.expand_s", median_of(setups.expand_seconds));
  record.add("exec.cell_s.p50", median_of(cell_p50));
  record.add("exec.cell_s.max", median_of(cell_max));
  record.add("exec.pool_busy_ratio", median_of(busy));
  record.add("exec.export_s", median_of(export_s));
  record.add("core.construct_s", median_of(setups.construct_seconds));
  record.add("core.construct_calls",
             static_cast<double>(setup.construct_calls));
  record.add("scheme_cache.hit_ratio",
             ratio(count("scheme_cache.hits"),
                   count("scheme_cache.hits") + count("scheme_cache.misses")));
  record.add("engine.rounds", rounds);
  record.add("engine.events_per_round", ratio(count("engine.events"), rounds));
  record.add("engine.reinstantiations", count("engine.reinstantiations"));
  record.add("linalg.lu_factors", count("linalg.lu_factors"));
  record.add("linalg.qr_factors", count("linalg.qr_factors"));
  record.add("decode.solves", count("decode.solves"));
  record.add("decode.solves_per_round",
             ratio(count("decode.solves"), decoded_rounds));
  record.add("decode.solve_s", solve_s);
  record.add("decode.solve_us.p50", median_of(solve_p50));
  record.add("decode.solve_us.p99", median_of(solve_p99));
  record.add("decode_cache.hit_ratio",
             ratio(count("decode_cache.hits"),
                   count("decode_cache.hits") + count("decode_cache.misses")));
  record.add("unattributed_s", median_of(unattributed));
  record.add("unattributed_ratio", median_of(unattributed_share));
  record.add("trace.overhead_ratio",
             ratio(median_of(traced_s), median_of(untraced_s)) - 1.0);
  record.add("trace.dropped_events", static_cast<double>(dropped));

  std::cout << "[" << workload << "] traced grid: " << setup.cells.size()
            << " cells, " << rounds << " rounds per sweep, "
            << traced_s.size() << " traced sweeps on " << sweep_threads()
            << " threads\n";
  print_layer_table(workload, times, median_of(traced_s),
                    median_of(untraced_s));
  return record;
}

/// A fingerprint of the expanded grid: every cell's coordinates and seed.
/// Changes with the workload seed; the metric set does not.
void describe(const std::string& workload, std::uint64_t seed) {
  const exec::FigureSweep figure = make_workload(workload, seed, false);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::string_view text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  };
  const std::vector<exec::Cell> cells = exec::expand(figure.grid);
  for (const exec::Cell& cell : cells) {
    for (const auto& [axis, value] : cell.axes) {
      mix(axis);
      mix(value);
    }
    mix(std::to_string(cell.experiment.seed));
    mix(std::to_string(cell.forked_seed));
  }
  std::cout << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
            << ", \"cells\": " << cells.size() << ", \"grid_hash\": \""
            << std::hex << hash << std::dec << "\"}\n";
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream in(text);
  for (std::string part; std::getline(in, part, ',');) parts.push_back(part);
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    const bool list_metrics = args.get_bool("list-metrics", false);
    const bool describe_only = args.get_bool("describe", false);
    const std::string workloads = args.get("workload", "");
    const std::int64_t seed = args.get_int("seed", 1);
    const double seconds = args.get_double("seconds", 10.0);
    const std::int64_t trace = args.get_int("trace", 0);
    args.check_unused();

    if (list_metrics) {
      for (const MetricSpec& spec : kMetrics)
        std::cout << spec.name << " " << spec.unit << " "
                  << (spec.mode == Mode::kEndToEnd ? "end_to_end"
                                                   : "per_layer")
                  << "\n";
      return 0;
    }
    if (seed < 0 || !(seconds >= 0.0) || (trace != 0 && trace != 1))
      throw std::invalid_argument(
          "want --seed >= 0, --seconds >= 0 and --trace 0|1");
    std::vector<std::string> names = split_commas(workloads);
    if (workloads == "all")
      names.assign(std::begin(kWorkloads), std::end(kWorkloads));
    if (names.empty())
      throw std::invalid_argument(
          "--workload paper|scale10k|train|all (comma-separated) required");
    const auto seed_u = static_cast<std::uint64_t>(seed);
    for (const std::string& name : names)
      if (std::find(std::begin(kWorkloads), std::end(kWorkloads), name) ==
          std::end(kWorkloads))
        throw std::invalid_argument("unknown workload: " + name);
    if (describe_only) {
      for (const std::string& name : names) describe(name, seed_u);
      return 0;
    }

    // Timings from an unoptimized build say nothing about the code.
    const std::string build_type = HGC_PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    if (build_type != "Release" || !ndebug) {
      std::cerr << "hgc_perfbench: refusing to measure a '" << build_type
                << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 2;
    }

    for (const std::string& name : names) {
      const Record record = trace == 1 ? run_traced(name, seed_u, seconds)
                                       : run_untraced(name, seed_u, seconds);
      print_record(record);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hgc_perfbench: " << e.what() << "\n";
    return 1;
  }
}
