#include "runtime/threaded_trainer.hpp"

#include <chrono>
#include <thread>

#include "core/decoder.hpp"
#include "ml/sgd.hpp"
#include "runtime/channel.hpp"
#include "sim/experiment.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace hgc {
namespace {

/// State the master publishes to workers at each iteration boundary.
struct Broadcast {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t iteration = 0;  // 0 = before the first iteration
  bool stop = false;
  Vector params;
  IterationConditions conditions;
};

struct WorkerResult {
  WorkerId worker;
  std::size_t iteration;
  Vector coded;
};

void worker_loop(WorkerId w, const CodingScheme& scheme,
                 const Cluster& cluster, const SoftmaxRegression& model,
                 const Dataset& data,
                 const std::vector<std::vector<std::size_t>>& partitions,
                 const ThreadedTrainingConfig& config, Broadcast& bcast,
                 Channel<WorkerResult>& results) {
  const std::size_t k = scheme.num_partitions();
  const auto& mine = scheme.assignment()[w];
  std::size_t last_done = 0;
  Vector params;

  while (true) {
    double speed = 1.0, delay = 0.0;
    bool faulted = false;
    std::size_t iteration = 0;
    {
      std::unique_lock lock(bcast.mutex);
      bcast.cv.wait(lock, [&] {
        return bcast.stop || bcast.iteration != last_done;
      });
      if (bcast.stop) return;
      iteration = bcast.iteration;
      params = bcast.params;  // snapshot under the lock
      speed = bcast.conditions.speed_factor[w];
      delay = bcast.conditions.delay[w];
      faulted = bcast.conditions.faulted[w];
    }
    last_done = iteration;
    if (faulted || mine.empty()) continue;  // silent this round

    // Real compute: partial gradients over this worker's partitions.
    std::vector<Vector> grads(k);
    for (PartitionId p : mine)
      grads[p] = partition_gradient(model, data, partitions[p], params);

    // Physically realize the simulated heterogeneity/delay.
    if (config.time_scale > 0.0) {
      const double share =
          static_cast<double>(mine.size()) / static_cast<double>(k);
      const double simulated =
          share / (cluster.worker(w).throughput * speed) + delay;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(simulated * config.time_scale));
    }

    results.send({w, iteration, encode_gradient(scheme, w, grads)});
  }
}

}  // namespace

ThreadedTrainingResult train_bsp_threaded(
    const CodingScheme& scheme, const Cluster& cluster,
    const SoftmaxRegression& model, const Dataset& data,
    const ThreadedTrainingConfig& config) {
  const std::size_t m = scheme.num_workers();
  HGC_REQUIRE(cluster.size() == m, "cluster size must match scheme");
  HGC_REQUIRE(config.iterations > 0, "need at least one iteration");
  const SgdOptimizer optimizer(config.learning_rate);
  // A fault pattern wider than the provisioned tolerance would deadlock the
  // master (it waits for a decodable set that can never arrive).
  if (config.straggler_model.fault)
    HGC_REQUIRE(
        config.straggler_model.num_stragglers <= scheme.stragglers_tolerated(),
        "faulted workers would exceed the scheme's straggler tolerance");

  const auto partitions =
      partition_rows(data.size(), scheme.num_partitions());

  Rng condition_rng = condition_stream(config.seed);
  Rng init_rng(config.seed + 0x1111);
  Vector params = model.init_params(init_rng);
  const double inv_n = 1.0 / static_cast<double>(data.size());

  Broadcast bcast;
  Channel<WorkerResult> results;
  std::vector<std::thread> workers;
  workers.reserve(m);
  for (WorkerId w = 0; w < m; ++w)
    workers.emplace_back(worker_loop, w, std::cref(scheme),
                         std::cref(cluster), std::cref(model),
                         std::cref(data), std::cref(partitions),
                         std::cref(config), std::ref(bcast),
                         std::ref(results));

  // One Section III-B store for the run: its cached nullopt entries make
  // re-probing a prefix that already failed a lookup, not a solve.
  DecodingCache cache(scheme);
  std::vector<Arrival> arrivals;

  ThreadedTrainingResult result;
  result.trace.label = scheme.name() + "+threads";
  Stopwatch wall;
  result.trace.points.push_back({0.0, mean_loss(model, data, params), 0});

  for (std::size_t iter = 1; iter <= config.iterations; ++iter) {
    {
      std::lock_guard lock(bcast.mutex);
      bcast.iteration = iter;
      bcast.params = params;
      bcast.conditions = config.straggler_model.draw(m, condition_rng);
    }
    bcast.cv.notify_all();

    // Section III-C's rule, as in every simulated round: after each fresh
    // result, the first prefix of the arrivals so far that decodes. Stamping
    // results with their receive sequence number makes (time, worker) order
    // arrival order.
    arrivals.clear();
    std::vector<Vector> coded(m);
    std::optional<Vector> coefficients;
    while (!coefficients) {
      auto msg = results.receive();
      HGC_ASSERT(msg.has_value(), "result channel closed mid-iteration");
      if (msg->iteration != iter) {
        ++result.results_discarded;  // straggler from a previous round
        continue;
      }
      arrivals.emplace_back(static_cast<double>(arrivals.size()), msg->worker);
      coded[msg->worker] = std::move(msg->coded);
      coefficients =
          first_decodable_prefix(scheme, arrivals, &cache).coefficients;
    }
    Vector aggregate = combine_coded_gradients(*coefficients, coded);
    scale(inv_n, aggregate);
    optimizer.step(params, aggregate);
    result.trace.points.push_back(
        {wall.seconds(), mean_loss(model, data, params), iter});
  }

  {
    std::lock_guard lock(bcast.mutex);
    bcast.stop = true;
  }
  bcast.cv.notify_all();
  results.close();
  for (std::thread& t : workers) t.join();

  result.final_accuracy =
      model.accuracy(data, all_rows(data.size()), params);
  result.final_params = std::move(params);
  return result;
}

}  // namespace hgc
