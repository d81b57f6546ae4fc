// Ablation — online estimation and adaptive re-coding.
//
// Grid: exec::adaptive_sweep(iters) — phase {cold-start, drift} × mode
// {static, adaptive} on Cluster-A; the four cells run in parallel through
// exec::run_sweep and emit w0..w4 window means plus the re-code count
// (same grid as `hgc_sweep --grid adaptive`).
//
// Two operational scenarios beyond the paper's one-shot construction:
//  (1) cold start: the master knows nothing (uniform estimates) and must
//      learn Cluster-A's heterogeneity from per-iteration telemetry;
//  (2) drift: the 12-vCPU worker permanently slows 4× mid-run while
//      transient stragglers keep contending for the straggler budget. The
//      slowdown is a virtual-time engine::DriftWindow in the run's
//      ScenarioScript, opening after iters/3 ideal iterations' worth of time.
// Every cell is one sim::run_experiment with an AdaptiveRecoder hook; a
// single round is engine::run_round.
#include <iostream>

#include "exec/figures.hpp"
#include "sim/iteration.hpp"
#include "util/table.hpp"

namespace {

double window_metric(const hgc::exec::ResultTable& table, const char* phase,
                     const char* mode, const std::string& name) {
  double v = 0.0;
  table.find({{"phase", phase}, {"mode", mode}})->value(name, v);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hgc;
  const auto [iterations, options] =
      exec::parse_bench_args(argc, argv, 300);

  const Cluster cluster = cluster_a();
  const double ideal = ideal_iteration_time(cluster, 1);
  std::cout << "=== Ablation: adaptive re-coding (Cluster-A, heter-aware, "
               "s = 1) ===\n\n";

  const exec::ResultTable table =
      exec::run_figure(exec::adaptive_sweep(iterations), options);
  // The five windows partition [0, iterations).
  const auto window = [iterations](std::size_t i) {
    return std::to_string(i * iterations / 5) + ".." +
           std::to_string((i + 1) * iterations / 5);
  };

  {
    std::cout << "--- Cold start: uniform initial estimates, EWMA telemetry, "
                 "re-code check every 10 iters ---\n\n";
    TablePrinter printer({"window (iters)", "static (uniform belief)",
                          "adaptive", "ideal"});
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string metric = "w" + std::to_string(i);
      printer.add_row(
          {window(i),
           TablePrinter::num(
               window_metric(table, "cold-start", "static", metric), 4),
           TablePrinter::num(
               window_metric(table, "cold-start", "adaptive", metric), 4),
           TablePrinter::num(ideal, 4)});
    }
    printer.print(std::cout);
    std::cout << "re-codes performed: "
              << static_cast<std::size_t>(
                     window_metric(table, "cold-start", "adaptive",
                                   "recodes"))
              << "\n\n";
  }

  {
    std::cout << "--- Drift: worker " << cluster.size() - 1
              << " (12 vCPUs) slows 4x at virtual time "
              << TablePrinter::num(
                     static_cast<double>(iterations / 3) * ideal, 3)
              << " s, transient straggler every iteration ---\n\n";
    TablePrinter printer({"window (iters)", "static", "adaptive"});
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string metric = "w" + std::to_string(i);
      printer.add_row(
          {window(i),
           TablePrinter::num(window_metric(table, "drift", "static", metric),
                             4),
           TablePrinter::num(
               window_metric(table, "drift", "adaptive", metric), 4)});
    }
    printer.print(std::cout);
    std::cout << "re-codes performed: "
              << static_cast<std::size_t>(
                     window_metric(table, "drift", "adaptive", "recodes"))
              << "\n\nExpected shape: identical before the drift; after it "
                 "the static code must spend\nits straggler budget on the "
                 "slowed worker (transient delays surface), while\nadaptive "
                 "re-balances and keeps absorbing the transients.\n";
  }
  return 0;
}
