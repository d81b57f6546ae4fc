// Engine scale: how fast engine::run_round turns the crank.
//
// Four parts, all through engine::run_round (one pass over the workers, a
// sort of the arrivals, a streaming decode of the first decodable prefix):
//   1. A 1,000-worker heterogeneity-aware coded round — the arrival-sort and
//      streaming-decode hot path at two orders of magnitude beyond the
//      paper's clusters. The headline number is wall time per round, which
//      should sit well under a second (milliseconds, in practice).
//   2. A 10,000-worker round — the scale the sparse coding layer opens up:
//      with B stored CSR, construction plus a round stays in tens of
//      milliseconds where the dense representation needed gigabytes.
//   3. A worker-churn scenario: workers leave and join mid-run, the master
//      re-instantiates the scheme each time membership changes.
//   4. A trace-replay scenario driven end to end from a CSV delay trace
//      written and loaded on the spot.
// Parts 3 and 4 are scenario scripts run by sim::run_experiment, the same
// driver behind every sweep cell.
//
// Usage: bench_engine_scale [--workers=1000] [--big-workers=10000]
//                           [--rounds=20] [--big-rounds=5] [--s=2]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "engine/link.hpp"
#include "engine/round.hpp"
#include "engine/scenario.hpp"
#include "sim/experiment.hpp"
#include "sim/iteration.hpp"
#include "util/args.hpp"
#include "util/checked_cast.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hgc;

Cluster big_cluster(std::size_t workers) {
  // Shared scale preset (cluster/cluster.hpp): the same machine mix the
  // exec grids' "scale-<N>" cluster name resolves to.
  return scale_cluster(workers);
}

void bench_big_round(int part, std::size_t workers, std::size_t rounds,
                     std::size_t s) {
  std::cout << "--- " << part << ") " << workers
            << "-worker coded round (heter-aware, s = " << s << ") ---\n\n";
  const Cluster cluster = big_cluster(workers);

  Rng construction_rng(1);
  Stopwatch build_watch;
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), cluster.size(), s,
                                  construction_rng);
  std::cout << "scheme construction: "
            << TablePrinter::num(build_watch.milliseconds(), 1) << " ms\n";

  StragglerModel model;
  model.num_stragglers = s;
  model.delay_seconds = 4.0 * ideal_iteration_time(cluster, s);
  model.fluctuation_sigma = 0.05;
  Rng condition_rng(2);

  engine::FixedLatencyLink link(1e-4);
  RunningStats wall_ms;
  ReservoirQuantiles wall_quantiles;
  RunningStats virtual_time;
  std::size_t failures = 0;
  std::size_t events = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const IterationConditions conditions =
        model.draw(cluster.size(), condition_rng);
    Stopwatch watch;
    const engine::RoundOutcome outcome =
        engine::run_round(*scheme, cluster, conditions, link);
    const double ms = watch.milliseconds();
    if (!outcome.decoded) {
      ++failures;
      continue;
    }
    wall_ms.add(ms);
    wall_quantiles.add(ms);
    virtual_time.add(outcome.time);
    events += outcome.events_executed;
  }

  TablePrinter table({"metric", "value"});
  table.add_row({"rounds", std::to_string(rounds)});
  table.add_row({"undecodable rounds", std::to_string(failures)});
  table.add_row({"wall ms/round (mean)", TablePrinter::num(wall_ms.mean(), 3)});
  table.add_row({"wall ms/round (p50)",
                 TablePrinter::num(wall_quantiles.p50(), 3)});
  table.add_row({"wall ms/round (p99)",
                 TablePrinter::num(wall_quantiles.p99(), 3)});
  table.add_row({"virtual s/round (mean)",
                 TablePrinter::num(virtual_time.mean(), 4)});
  table.add_row({"events/round",
                 std::to_string(events / std::max<std::size_t>(
                                             rounds - failures, 1))});
  table.print(std::cout);
  std::cout << "\n=> a " << workers << "-worker round costs "
            << TablePrinter::num(wall_ms.mean(), 2)
            << " ms of wall time — well under a second.\n\n";
}

void bench_churn(std::size_t s) {
  std::cout << "--- 3) worker churn (200 workers, leaves + joins) ---\n\n";
  const Cluster cluster = big_cluster(200);

  ExperimentConfig config;
  config.iterations = 400;
  config.s = s;
  config.model.num_stragglers = s;
  config.model.delay_seconds = 0.05;
  config.model.fluctuation_sigma = 0.05;
  // A rolling outage: five fast workers die early, three replacements come
  // back later, then two slow workers retire.
  engine::ScenarioScript script;
  const double t0 = ideal_iteration_time(cluster, s);
  for (std::size_t i = 0; i < 5; ++i)
    script.churn.push_back({20.0 * t0, false, 150 + i, {}});
  for (std::size_t i = 0; i < 3; ++i)
    script.churn.push_back({120.0 * t0, true, 0, {8, 8.0}});
  script.churn.push_back({240.0 * t0, false, 0, {}});
  script.churn.push_back({240.0 * t0, false, 1, {}});

  Stopwatch watch;
  const SchemeSummary result =
      run_experiment(SchemeKind::kHeterAware, cluster, config, script);
  const double ms = watch.milliseconds();

  TablePrinter table({"metric", "value"});
  table.add_row({"iterations", std::to_string(result.iterations)});
  table.add_row({"scheme re-instantiations",
                 std::to_string(result.reinstantiations)});
  std::string epochs;
  for (std::size_t size : result.epoch_sizes)
    epochs += (epochs.empty() ? "" : " -> ") + std::to_string(size);
  table.add_row({"membership epochs", epochs});
  table.add_row({"undecodable rounds", std::to_string(result.failures)});
  table.add_row({"round latency p50 (s)",
                 TablePrinter::num(result.latency.p50(), 4)});
  table.add_row({"round latency p95 (s)",
                 TablePrinter::num(result.latency.p95(), 4)});
  table.add_row({"round latency p99 (s)",
                 TablePrinter::num(result.latency.p99(), 4)});
  table.add_row({"wall time (ms)", TablePrinter::num(ms, 1)});
  table.print(std::cout);
  std::cout << '\n';
}

void bench_trace_replay(std::size_t s) {
  std::cout << "--- 4) trace replay from CSV (64 workers) ---\n\n";
  const Cluster cluster = big_cluster(64);
  const double t0 = ideal_iteration_time(cluster, s);

  // Synthesize a bursty straggler log: every worker takes turns being slow
  // for an 8-iteration burst; one iteration per burst is a hard fault.
  const std::size_t iterations = 256;
  std::vector<std::vector<double>> rows(
      iterations, std::vector<double>(cluster.size(), 0.0));
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const std::size_t victim = (iter / 8) % cluster.size();
    rows[iter][victim] = (iter % 8 == 7) ? -1.0 : 3.0 * t0;
  }
  const std::string path = "bench_engine_scale_trace.csv";
  {
    std::ofstream out(path);
    out << "# bursty straggler log: one victim per 8-iteration burst\n";
    engine::write_delay_trace_csv(engine::DelayTrace(rows), out);
  }
  const engine::DelayTrace trace = engine::load_delay_trace_csv(path);
  std::remove(path.c_str());

  // One pass over the trace, replayed as a splice on clean rounds; every
  // scheme reseeds from the same config, so the same trace row drives each
  // scheme's iteration i.
  ExperimentConfig config;
  config.iterations = trace.num_iterations();
  config.s = s;
  engine::ScenarioScript script;
  script.splice = trace;
  script.splice_repeat = 0;
  Stopwatch watch;
  std::vector<SchemeSummary> results;
  for (SchemeKind kind : {SchemeKind::kNaive, SchemeKind::kCyclic,
                          SchemeKind::kHeterAware, SchemeKind::kGroupBased})
    results.push_back(run_experiment(kind, cluster, config, script));
  const double ms = watch.milliseconds();

  TablePrinter table(
      {"scheme", "failures", "mean (s)", "p95 (s)", "p99 (s)", "total (s)"});
  for (const auto& result : results)
    table.add_row({result.scheme, std::to_string(result.failures),
                   TablePrinter::num(result.iteration_time.mean(), 4),
                   TablePrinter::num(result.latency.p95(), 4),
                   TablePrinter::num(result.latency.p99(), 4),
                   TablePrinter::num(result.total_time, 2)});
  table.print(std::cout);
  std::cout << "\nreplayed " << iterations << " iterations x "
            << results.size() << " schemes in " << TablePrinter::num(ms, 1)
            << " ms (same trace row drives every scheme's round)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto workers =
      checked_cast<std::size_t>(args.get_int("workers", 1000));
  const auto big_workers =
      checked_cast<std::size_t>(args.get_int("big-workers", 10000));
  const auto rounds = checked_cast<std::size_t>(args.get_int("rounds", 20));
  const auto big_rounds =
      checked_cast<std::size_t>(args.get_int("big-rounds", 5));
  const auto s = checked_cast<std::size_t>(args.get_int("s", 2));
  args.check_unused();

  std::cout << "=== Engine scale: 1,000- and 10,000-worker rounds, churn, "
               "trace replay ===\n\n";
  bench_big_round(1, workers, rounds, s);
  bench_big_round(2, big_workers, big_rounds, s);
  bench_churn(s);
  bench_trace_replay(s);
  return 0;
}
