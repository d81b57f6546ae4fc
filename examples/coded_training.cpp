// End-to-end distributed training with real worker threads.
//
// Trains a softmax classifier on a synthetic CIFAR-10-like dataset using the
// threaded BSP runtime: every worker is an OS thread that computes real
// partial gradients, sleeps its simulated compute time (heterogeneous
// speeds + injected stragglers), encodes, and sends to the master, which
// decodes from the earliest decodable arrival set and steps SGD.
//
//   ./examples/coded_training --scheme heter --iters 12 --delay 0.5
#include <iostream>

#include "core/scheme_factory.hpp"
#include "runtime/threaded_trainer.hpp"
#include "sim/experiment.hpp"
#include "util/args.hpp"
#include "util/checked_cast.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hgc;
  Args args(argc, argv);
  const std::string scheme_name = args.get("scheme", "heter");
  const auto iterations = checked_cast<std::size_t>(args.get_int("iters", 12));
  const double delay = args.get_double("delay", 0.5);
  const double time_scale = args.get_double("time-scale", 2e-3);
  args.check_unused();

  const Cluster cluster = cluster_a();
  const std::size_t s = 1;
  const std::size_t k = exact_partition_count(cluster, s);

  Rng data_rng(1);
  const Dataset data = make_synthetic_cifar10(512, data_rng, 32);
  SoftmaxRegression model(data.dim(), data.num_classes);

  Rng scheme_rng(2);
  const SchemeKind kind = parse_scheme_kind(scheme_name);
  const auto scheme =
      make_scheme(kind, cluster.throughputs(), k, s, scheme_rng);

  ThreadedTrainingConfig config;
  config.iterations = iterations;
  config.learning_rate = 0.4;
  config.time_scale = time_scale;
  if (kind != SchemeKind::kNaive) {
    config.straggler_model.num_stragglers = 1;
    config.straggler_model.delay_seconds = delay;
  }

  std::cout << "Training " << model.name() << " (" << model.num_params()
            << " params) on " << data.size() << " samples, scheme "
            << scheme->name() << ", " << cluster.size()
            << " worker threads on " << cluster.name() << "\n\n";

  const auto result = train_bsp_threaded(*scheme, cluster, model, data, config);

  TablePrinter table({"iter", "wall time (s)", "mean loss"});
  for (const TracePoint& p : result.trace.points)
    table.add_row({std::to_string(p.iteration), TablePrinter::num(p.time, 3),
                   TablePrinter::num(p.loss, 4)});
  table.print(std::cout);

  std::cout << "\nfinal accuracy: "
            << TablePrinter::num(100.0 * result.final_accuracy, 1)
            << "%, stale results discarded: " << result.results_discarded
            << "\n";
  return 0;
}
