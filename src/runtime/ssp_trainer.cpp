#include "runtime/ssp_trainer.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "util/error.hpp"

namespace hgc {

SspTrainingResult train_ssp(const Cluster& cluster,
                            const SoftmaxRegression& model,
                            const Dataset& data,
                            const SspTrainingConfig& config) {
  const std::size_t m = cluster.size();
  HGC_REQUIRE(config.experiment.iterations > 0, "need at least one iteration");
  HGC_REQUIRE(config.learning_rate > 0.0, "learning rate must be positive");
  HGC_REQUIRE(config.record_every > 0, "record_every must be positive");

  const auto shards = partition_rows(data.size(), m);
  Rng condition_rng = condition_stream(config.experiment.seed);
  Rng init_rng(config.experiment.seed + 0x1111);

  Vector params = model.init_params(init_rng);
  // Per-push learning rate: m pushes with shard-mean gradients approximate
  // one full-batch step with the nominal rate.
  const double push_lr =
      config.learning_rate / static_cast<double>(m);

  // Worker state. SSP is a free-running protocol, so unlike the BSP round
  // (engine::run_round) there is no per-iteration barrier: every worker
  // keeps its own clock, and pushes complete in (finish time, worker) order.
  // A worker has at most one push in flight, so that order is total.
  std::vector<std::size_t> clock(m, 0);
  std::vector<Vector> snapshot(m);          // params seen at pull time
  std::vector<bool> blocked(m, false);
  using Push = std::pair<double, WorkerId>;  // (finish time, worker)
  std::priority_queue<Push, std::vector<Push>, std::greater<>> in_flight;
  double now = 0.0;

  // Per-worker-step condition draw. SSP has no global iteration, so the
  // straggler model is applied marginally: each step is delayed with
  // probability num_stragglers/m; a "fault" becomes a long stall (the VM
  // restarts) rather than a permanent loss, since a permanently dead worker
  // would pin min_clock and deadlock every SSP variant.
  const StragglerModel& sm = config.experiment.model;
  const double victim_probability =
      m == 0 ? 0.0
             : static_cast<double>(sm.num_stragglers) / static_cast<double>(m);
  auto compute_duration = [&](WorkerId w) {
    double factor = 1.0;
    if (sm.fluctuation_sigma > 0.0) {
      const double eps = condition_rng.truncated_normal(
          0.0, sm.fluctuation_sigma, -3.0 * sm.fluctuation_sigma,
          3.0 * sm.fluctuation_sigma);
      factor = std::max(0.05, 1.0 + eps);
    }
    const double rate = cluster.worker(w).throughput * factor;
    const double share = static_cast<double>(shards[w].size()) /
                         static_cast<double>(data.size());
    const double base = share / rate;
    double delay = 0.0;
    if (sm.num_stragglers > 0 &&
        condition_rng.bernoulli(std::min(1.0, victim_probability)))
      delay = sm.fault ? 50.0 * base : sm.delay_seconds;
    return base + delay + config.experiment.sim.comm_latency;
  };

  const std::size_t total_pushes = config.experiment.iterations * m;
  std::size_t pushes = 0;
  std::size_t blocked_events = 0;
  double spread_sum = 0.0;

  SspTrainingResult result;
  result.trace.label = "ssp";
  result.trace.points.push_back({0.0, mean_loss(model, data, params), 0});

  Vector grad(model.num_params());
  auto start_worker = [&](WorkerId w) {
    snapshot[w] = params;  // pull
    in_flight.emplace(now + compute_duration(w), w);
  };

  for (WorkerId w = 0; w < m; ++w) start_worker(w);
  while (pushes < total_pushes && !in_flight.empty()) {
    const WorkerId w = in_flight.top().second;
    now = in_flight.top().first;
    in_flight.pop();

    // Push: gradient of w's shard at the parameters w pulled (stale).
    std::fill(grad.begin(), grad.end(), 0.0);
    model.gradient(data, shards[w], snapshot[w], grad);
    const double inv_shard = 1.0 / static_cast<double>(shards[w].size());
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i] -= push_lr * inv_shard * grad[i];
    ++clock[w];
    ++pushes;

    const std::size_t min_clock =
        *std::min_element(clock.begin(), clock.end());
    const std::size_t max_clock =
        *std::max_element(clock.begin(), clock.end());
    spread_sum += static_cast<double>(max_clock - min_clock);

    if (pushes % (m * config.record_every) == 0 || pushes == total_pushes)
      result.trace.points.push_back(
          {now, mean_loss(model, data, params), pushes / m});

    // Restart w unless the staleness bound blocks it.
    if (clock[w] - min_clock > config.staleness) {
      blocked[w] = true;
      ++blocked_events;
    } else {
      start_worker(w);
    }
    // min_clock may have advanced: release any blocked workers now inside
    // the staleness window.
    for (WorkerId other = 0; other < m; ++other) {
      if (blocked[other] && clock[other] - min_clock <= config.staleness) {
        blocked[other] = false;
        start_worker(other);
      }
    }
  }

  result.mean_clock_spread =
      pushes ? spread_sum / static_cast<double>(pushes) : 0.0;
  result.blocked_fraction =
      pushes ? static_cast<double>(blocked_events) /
                   static_cast<double>(pushes)
             : 0.0;
  result.final_params = std::move(params);
  return result;
}

}  // namespace hgc
