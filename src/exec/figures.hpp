// Preset sweep declarations for every paper figure and ablation, shared by
// the refactored bench binaries and the hgc_sweep CLI — one declaration per
// figure, two front ends. Also the `--grid` spec parser: a compact
// `key=v1,v2;key=...` text format for ad-hoc grids.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/sweep.hpp"

namespace hgc::exec {

/// A named, runnable figure: its grid plus (optionally) a custom cell body.
struct FigureSweep {
  std::string name;
  std::string description;
  SweepGrid grid;
  CellFn fn;  ///< null = the built-in scenario-dispatching cell body
};

/// Run a figure at the requested parallelism.
ResultTable run_figure(const FigureSweep& figure,
                       const SweepOptions& opts = {});

// --- Paper figures ------------------------------------------------------

/// Fig. 2 panel: Cluster-A, fixed s, delay factors 0..8× ideal plus fault,
/// all four schemes. One grid per panel (s = 1, s = 2).
SweepGrid fig2_grid(std::size_t s, std::size_t iterations);

/// Fig. 3: clusters B/C/D, s = 1, one straggler at 4× ideal, 5% fluctuation.
SweepGrid fig3_grid(std::size_t iterations);

/// Fig. 5: clusters A–D, s = 1, one straggler at 2× ideal, 5% fluctuation;
/// the metric of interest is `usage`.
SweepGrid fig5_grid(std::size_t iterations);

/// Fig. 4 main panel: loss-vs-time training on Cluster-C; series axis =
/// the four coded schemes (BSP) plus SSP. Cells train real models and emit
/// the sampled curve as t<i>/loss<i> metrics plus final_loss/final_time.
FigureSweep fig4_sweep(std::size_t iterations);

/// Fig. 4 non-IID panel: label-sorted shards on Cluster-A; series axis =
/// coded BSP, SSP, ignore-stragglers.
FigureSweep fig4_noniid_sweep(std::size_t iterations);

/// Table II derived quantities per cluster (m, Σc, min c, heterogeneity
/// ratio, exact k, ideal iteration time).
FigureSweep table2_sweep();

// --- Ablations ----------------------------------------------------------

/// Estimation-error ablation: σ × {cyclic, heter, group} × seeds 1..n on
/// Cluster-A. Aggregate over "seed" before presenting.
SweepGrid sigma_grid(std::size_t iterations, std::size_t num_seeds);

/// Message-loss ablation: drop probability × schemes over the real wire
/// stack (custom cell body running engine::run_round over wire frames).
FigureSweep loss_sweep(std::size_t iterations);

/// Layerwise ablation: transfer/compute ratio × layer count, heter-aware on
/// Cluster-A (custom cell body running the pipelined simulator).
FigureSweep layerwise_sweep(std::size_t iterations);

/// Adaptive re-coding ablation: phase {cold, drift} × mode {static,
/// adaptive}; cells emit w0..w4 window means plus recodes.
FigureSweep adaptive_sweep(std::size_t iterations);

/// Scenario-axis demo: the four schemes × {static, churn, trace} on
/// Cluster-A — scenario scripts as one more sweep axis.
SweepGrid scenarios_grid(std::size_t iterations);

// --- Scenario building blocks -------------------------------------------

/// A small deterministic churn schedule for `cluster`: the fastest worker
/// leaves a quarter of the way in, an 8-vCPU replacement joins at 60%.
std::vector<engine::ChurnEvent> demo_churn_events(const Cluster& cluster,
                                                  std::size_t iterations,
                                                  std::size_t s);

/// A deterministic synthetic delay trace (rows × cluster.size()): a
/// rotating straggler with occasional faults, delays scaled to the
/// cluster's ideal iteration time.
engine::DelayTrace demo_delay_trace(const Cluster& cluster, std::size_t rows,
                                    std::size_t s);

// --- CLI plumbing -------------------------------------------------------

/// Shared CLI plumbing for the figure benches: `--iters N --threads N`.
struct BenchArgs {
  std::size_t iterations = 0;
  SweepOptions options;
};

/// Parse a figure bench's command line (rejecting unknown flags).
BenchArgs parse_bench_args(int argc, const char* const* argv,
                           std::size_t default_iters);

/// Names accepted by make_figure / hgc_sweep --grid.
std::vector<std::string> figure_names();

/// Build a preset by name ("fig2", "fig3", "fig4", "fig4_noniid", "fig5",
/// "table2", "sigma", "loss", "layerwise", "adaptive", "scenarios").
/// `iterations` = 0 uses the preset's default. Throws std::invalid_argument
/// for unknown names.
FigureSweep make_figure(const std::string& name, std::size_t iterations = 0);

/// Parse a `key=v1,v2;key=...` grid spec. Keys: clusters (A–D), schemes
/// (naive|cyclic|fractional|heter|group), s, k, sigmas, seeds (list or
/// a..b), iters, stragglers (count or "s"), delay_factors (× ideal),
/// delays (seconds), fault (0/1), fluct, latency, scenarios
/// (static|churn|trace), trace (CSV path for the trace scenario),
/// scenario_file (DSL files, comma-separated and accumulating across
/// repeats of the key; each file is one point on the scenario axis).
/// Unknown keys, non-finite numbers (inf, nan), non-integral counts
/// (s=1.5, k=-2), a trace= that no scenario consumes, and multi-s grids
/// over the s-derived demo churn/trace schedules all throw
/// std::invalid_argument.
SweepGrid parse_grid_spec(const std::string& spec);

/// Load a scenario DSL file (scenario/dsl.hpp) into one scenario-axis
/// point named after the file's stem.
ScenarioSpec load_scenario_spec(const std::string& path);

/// Append DSL scenario files to the grid's scenario axis. When
/// `axis_is_explicit` is false and the axis is the lone default static
/// point, the files replace it (that point is a placeholder, not an
/// operator choice); an explicit axis is kept and the files append after
/// it. Validates that the grid has a single cluster and that each file's
/// declared worker count matches it. Used by parse_grid_spec
/// (scenario_file=) and hgc_sweep (--scenario-file with a preset grid).
void append_scenario_files(SweepGrid& grid,
                           const std::vector<std::string>& paths,
                           bool axis_is_explicit = false);

}  // namespace hgc::exec
