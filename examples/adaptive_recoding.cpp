// Adaptive re-coding demo: the master starts knowing nothing about worker
// speeds, learns them from per-iteration telemetry, and re-builds the
// heterogeneity-aware code on the fly — then survives a mid-run slowdown of
// its fastest machine. The slowdown is a virtual-time drift window that
// opens after --drift-at ideal iterations' worth of time.
//
//   ./examples/adaptive_recoding --iters 300 --drift-at 100 --drift-factor 0.25
#include <algorithm>
#include <exception>
#include <iostream>

#include "sim/adaptive.hpp"
#include "util/args.hpp"
#include "util/checked_cast.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace hgc;
  Args args(argc, argv);
  // checked_cast: a negative count throws instead of wrapping into an
  // absurd size_t.
  const auto iterations =
      checked_cast<std::size_t>(args.get_int("iters", 300));
  const auto drift_at = checked_cast<std::size_t>(args.get_int(
      "drift-at", static_cast<std::int64_t>(iterations / 3)));
  const double drift_factor = args.get_double("drift-factor", 0.25);
  args.check_unused();

  const Cluster cluster = cluster_a();
  const double ideal = ideal_iteration_time(cluster, 1);
  engine::DriftWindow drift;
  drift.worker = cluster.size() - 1;
  drift.to = drift_factor;
  drift.t0 = drift.t1 = static_cast<double>(drift_at) * ideal;
  std::cout << "Cluster-A, s = 1, ideal iteration time "
            << TablePrinter::num(ideal, 4) << " s.\n"
            << "Master starts with uniform throughput estimates (knows "
               "nothing), re-code check every 10 iters.\n"
            << "At virtual time " << TablePrinter::num(drift.t0, 3)
            << " s (" << drift_at << " ideal iterations) the fastest worker "
            << "slows to " << TablePrinter::num(drift_factor, 2)
            << "x permanently;\n"
            << "one transient straggler is delayed every iteration "
               "throughout.\n\n";

  ExperimentConfig config;
  config.iterations = iterations;
  config.k = 48;
  config.model.num_stragglers = 1;
  config.model.delay_seconds = 4.0 * ideal;
  engine::ScenarioScript script;
  script.drifts = {drift};

  AdaptivePolicy policy;
  policy.recode_every = 10;
  AdaptiveRecoder adaptive(policy, cluster.size());
  const SchemeSummary adaptive_run = run_experiment(
      SchemeKind::kHeterAware, cluster, config, script, adaptive.hook());
  policy.recode_every = 0;
  AdaptiveRecoder frozen(policy, cluster.size());
  run_experiment(SchemeKind::kHeterAware, cluster, config, script,
                 frozen.hook());

  TablePrinter table({"window", "static (no re-coding)", "adaptive"});
  const std::size_t w = std::max<std::size_t>(1, iterations / 6);
  for (std::size_t lo = 0; lo < iterations; lo += w) {
    const std::size_t hi = std::min(lo + w, iterations);
    table.add_row(
        {std::to_string(lo) + ".." + std::to_string(hi),
         TablePrinter::num(window_mean(frozen.iteration_times(), lo, hi), 4),
         TablePrinter::num(window_mean(adaptive.iteration_times(), lo, hi),
                           4)});
  }
  table.print(std::cout);

  // The truth at the adaptive run's end: the drift only counts if the
  // virtual clock reached its window.
  const double end_factor = drift.factor_at(adaptive_run.total_time);
  std::cout << "\nre-codes: " << adaptive_run.reinstantiations
            << ", learned estimates (true at the end in parens):\n  ";
  for (WorkerId i = 0; i < cluster.size(); ++i)
    std::cout << TablePrinter::num(adaptive.estimates()[i], 1) << " ("
              << TablePrinter::num(cluster.worker(i).throughput *
                                       (i == drift.worker ? end_factor : 1.0),
                                   1)
              << ")" << (i + 1 < cluster.size() ? ", " : "\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "adaptive_recoding: " << e.what() << "\n";
    return 1;
  }
}
