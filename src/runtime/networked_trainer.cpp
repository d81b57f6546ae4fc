#include "runtime/networked_trainer.hpp"

#include "engine/link.hpp"
#include "engine/round.hpp"
#include "sim/iteration.hpp"
#include "util/error.hpp"

namespace hgc {

NetworkedTrainingResult train_bsp_networked(
    SchemeKind kind, const Cluster& cluster, const Model& model,
    const Dataset& data, std::size_t k, std::size_t s,
    const NetworkedTrainingConfig& config) {
  const std::size_t m = cluster.size();
  HGC_REQUIRE(config.iterations > 0, "need at least one iteration");
  HGC_REQUIRE(config.max_round_retries > 0, "need at least one attempt");
  HGC_REQUIRE(config.record_every > 0, "record_every must be positive");

  Rng construction_rng(config.seed);
  Rng condition_rng(config.seed + 0x79b9);
  Rng init_rng(config.seed + 0x1111);

  const auto scheme =
      make_scheme(kind, cluster.throughputs(), k, s, construction_rng);
  const auto partitions =
      partition_rows(data.size(), scheme->num_partitions());

  SimulatedNetwork network(m + 1, config.link, Rng(config.seed + 0x2222));
  engine::NetworkLink link(network);
  engine::RoundOptions options{.wire_frames = true};

  Vector params = model.init_params(init_rng);
  SgdOptimizer optimizer(config.sgd, params.size());
  const double inv_n = 1.0 / static_cast<double>(data.size());

  NetworkedTrainingResult result;
  result.trace.label = scheme->name() + "+net";
  double clock = 0.0;
  result.trace.points.push_back({0.0, mean_loss(model, data, params), 0});

  for (std::size_t iter = 1; iter <= config.iterations; ++iter) {
    const auto grads =
        all_partition_gradients(model, data, partitions, params);
    options.partition_gradients = &grads;
    options.iteration = iter;

    bool stepped = false;
    for (std::size_t attempt = 0; attempt < config.max_round_retries;
         ++attempt) {
      const IterationConditions conditions =
          config.straggler_model.draw(m, condition_rng);
      const engine::RoundOutcome round =
          engine::run_round(*scheme, cluster, conditions, link, options);
      result.messages_dropped += round.dropped;
      if (!round.decoded) {
        ++result.rounds_retried;
        // The retry replays the full round: workers recompute and resend,
        // costing roughly one more iteration of wall time.
        clock += ideal_iteration_time(cluster, s);
        continue;
      }
      clock += round.time;
      Vector aggregate = round.aggregate;
      scale(inv_n, aggregate);
      optimizer.step(params, aggregate);
      stepped = true;
      break;
    }
    if (!stepped) {
      ++result.rounds_abandoned;  // parameters unchanged this iteration
      continue;
    }
    if (iter % config.record_every == 0 || iter == config.iterations)
      result.trace.points.push_back(
          {clock, mean_loss(model, data, params), iter});
  }

  result.bytes_sent = network.bytes_sent();
  result.final_accuracy =
      model.accuracy(data, all_rows(data.size()), params);
  result.final_params = std::move(params);
  return result;
}

}  // namespace hgc
