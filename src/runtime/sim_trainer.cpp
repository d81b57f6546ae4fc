#include "runtime/sim_trainer.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/coding_scheme.hpp"
#include "ml/sgd.hpp"
#include "util/error.hpp"

namespace hgc {

BspTrainingResult train_bsp_coded(SchemeKind kind, const Cluster& cluster,
                                  const SoftmaxRegression& model,
                                  const Dataset& data,
                                  const BspTrainingConfig& config) {
  HGC_REQUIRE(config.record_every > 0, "record_every must be positive");
  const ExperimentConfig& experiment = config.experiment;
  const SgdOptimizer optimizer(config.learning_rate);
  Rng init_rng(experiment.seed + 0x1111);
  Vector params = model.init_params(init_rng);
  const double inv_n = 1.0 / static_cast<double>(data.size());

  BspTrainingResult result;
  double clock = 0.0;
  result.trace.points.push_back({0.0, mean_loss(model, data, params), 0});
  std::vector<std::vector<std::size_t>> partitions;

  RoundHook hook;
  hook.after_round =
      [&](const RoundView& round) -> std::optional<Throughputs> {
    // An undecodable iteration never completes (e.g. naive + fault): the
    // clock would stall forever, so training ends at the first one.
    if (result.failed_iterations > 0) return std::nullopt;
    if (!round.outcome.decoded) {
      ++result.failed_iterations;
      return std::nullopt;
    }
    clock += round.outcome.time;

    // Real coded exchange: partition gradients -> worker encodings ->
    // master combination with the decode-time coefficients. Baselines
    // choose their own partition count (naive/cyclic use k = m).
    const CodingScheme& scheme = round.scheme;
    if (partitions.empty())
      partitions = partition_rows(data.size(), scheme.num_partitions());
    const auto grads =
        all_partition_gradients(model, data, partitions, params);
    std::vector<Vector> coded(scheme.num_workers());
    const Vector& coefficients = *round.outcome.coefficients;
    for (WorkerId w = 0; w < coded.size(); ++w)
      if (coefficients[w] != 0.0) coded[w] = encode_gradient(scheme, w, grads);
    Vector aggregate = combine_coded_gradients(coefficients, coded);
    scale(inv_n, aggregate);  // sum over samples -> mean gradient
    optimizer.step(params, aggregate);

    const std::size_t iter = round.iteration + 1;
    if (iter % config.record_every == 0 || iter == experiment.iterations)
      result.trace.points.push_back(
          {clock, mean_loss(model, data, params), iter});
    return std::nullopt;
  };
  result.trace.label =
      run_experiment(kind, cluster, experiment, {}, hook).scheme;
  result.final_params = std::move(params);
  return result;
}

BspTrainingResult train_bsp_ignore_stragglers(
    const Cluster& cluster, const SoftmaxRegression& model,
    const Dataset& data, const BspTrainingConfig& config) {
  const ExperimentConfig& experiment = config.experiment;
  const std::size_t m = cluster.size();
  const std::size_t s = experiment.s;
  HGC_REQUIRE(s < m, "cannot ignore as many workers as exist");
  HGC_REQUIRE(config.record_every > 0, "record_every must be positive");
  const SgdOptimizer optimizer(config.learning_rate);
  const auto shards = partition_rows(data.size(), m);

  Rng condition_rng = condition_stream(experiment.seed);
  Rng init_rng(experiment.seed + 0x1111);
  Vector params = model.init_params(init_rng);

  BspTrainingResult result;
  result.trace.label = "ignore-stragglers";
  double clock = 0.0;
  result.trace.points.push_back({0.0, mean_loss(model, data, params), 0});

  for (std::size_t iter = 1; iter <= experiment.iterations; ++iter) {
    const IterationConditions conditions =
        experiment.model.draw(m, condition_rng);

    // Uncoded even allocation: worker w computes its shard and arrives at
    // share/rate + delay; the master takes the first m−s arrivals.
    std::vector<std::pair<double, WorkerId>> arrivals;
    for (WorkerId w = 0; w < m; ++w) {
      if (conditions.faulted[w]) continue;
      const double rate =
          cluster.worker(w).throughput * conditions.speed_factor[w];
      const double share = static_cast<double>(shards[w].size()) /
                           static_cast<double>(data.size());
      arrivals.emplace_back(
          share / rate + conditions.delay[w] + experiment.sim.comm_latency, w);
    }
    if (arrivals.size() < m - s) {
      ++result.failed_iterations;  // more faults than the ignore budget
      break;
    }
    std::sort(arrivals.begin(), arrivals.end());
    arrivals.resize(m - s);
    clock += arrivals.back().first;

    // Biased update: gradient over the covered rows only, rescaled to a
    // per-sample mean (the bias: missing shards contribute nothing).
    Vector grad(model.num_params(), 0.0);
    std::size_t covered = 0;
    for (const auto& [at, w] : arrivals) {
      (void)at;
      model.gradient(data, shards[w], params, grad);
      covered += shards[w].size();
    }
    scale(1.0 / static_cast<double>(covered), grad);
    optimizer.step(params, grad);

    if (iter % config.record_every == 0 || iter == experiment.iterations)
      result.trace.points.push_back(
          {clock, mean_loss(model, data, params), iter});
  }
  result.final_params = std::move(params);
  return result;
}

}  // namespace hgc
