#include "engine/round.hpp"

#include <algorithm>
#include <utility>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checked_cast.hpp"
#include "util/error.hpp"

namespace hgc::engine {

MasterActor::MasterActor(Simulation& sim, const CodingScheme& scheme,
                         DecodingCache* decoding_cache)
    : Actor(sim, "master"), decoder_(scheme, decoding_cache) {}

void MasterActor::begin_round(std::uint64_t iteration) {
  decoder_.reset();
  iteration_ = iteration;
  decode_time_ = std::numeric_limits<double>::infinity();
  results_used_ = 0;
}

void MasterActor::receive_result(WorkerId w, Vector coded) {
  if (decoder_.ready()) return;  // late arrival after the barrier released
  if (decoder_.add_result(w, std::move(coded))) {
    decode_time_ = sim().now();
    results_used_ = decoder_.results_received();
    // The BSP barrier is released; nothing later this round matters.
    sim().stop();
  }
}

void MasterActor::receive_frame(const std::vector<std::byte>& frame) {
  GradientMessage message = decode_message(frame);
  HGC_ASSERT(message.iteration == iteration_, "cross-iteration frame");
  receive_result(message.worker, std::move(message.payload));
}

// The diagnostic name is the bare role, not "worker-<id>": run_round builds
// m actors per round, and id'd names would mean m heap strings per round on
// the scale-bench hot path. The id stays queryable via id().
WorkerActor::WorkerActor(Simulation& sim, WorkerId id, const WorkerSpec& spec)
    : Actor(sim, "worker"), id_(id), spec_(spec) {}

double WorkerActor::begin_round(const CodingScheme& scheme,
                                const IterationConditions& conditions,
                                Link& link, NodeId master_node,
                                MasterActor& master,
                                const RoundOptions& options,
                                std::size_t& dropped) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Virtual-clock trace row for this worker (row 0 is the master's).
  const auto row = checked_cast<std::uint32_t>(id_ + 1);
  const std::uint32_t track = options.trace_track;
  const double base = options.trace_time_base;
  if (conditions.faulted[id_] || scheme.load(id_) == 0) {
    if (conditions.faulted[id_])
      obs::trace_virtual_instant(track, row, "fault", "engine", base);
    return kInf;
  }

  const double rate = spec_.throughput * conditions.speed_factor[id_];
  HGC_ASSERT(rate > 0.0, "effective worker rate must be positive");
  const double share = static_cast<double>(scheme.load(id_)) /
                       static_cast<double>(scheme.num_partitions());
  const double compute = share / rate;
  const double send_time = sim().now() + compute + conditions.delay[id_];
  obs::trace_virtual_span(track, row, "compute", "engine",
                          base + sim().now(), compute);
  if (conditions.delay[id_] > 0.0)
    obs::trace_virtual_span(track, row, "straggle", "engine",
                            base + sim().now() + compute,
                            conditions.delay[id_]);

  // Build the payload now (the transmission carries real bytes); timing-only
  // rounds ship an empty vector so only the event flow is exercised.
  Vector payload;
  std::vector<std::byte> frame;
  std::size_t bytes = 0;
  if (options.partition_gradients) {
    payload = encode_gradient(scheme, id_, *options.partition_gradients);
    if (options.wire_frames) {
      GradientMessage message;
      message.worker = checked_cast<std::uint32_t>(id_);
      message.iteration = options.iteration;
      message.payload = std::move(payload);
      frame = encode_message(message);
      bytes = frame.size();
    } else {
      bytes = payload.size() * sizeof(double);
    }
  }

  const auto arrival = link.transmit(id_, master_node, bytes, send_time);
  if (!arrival) {
    ++dropped;  // lost in flight: one more silent straggler
    obs::trace_virtual_instant(track, row, "lost", "engine",
                               base + send_time);
    return compute;
  }
  obs::trace_virtual_span(track, row, "transmit", "engine", base + send_time,
                          *arrival - send_time);
  // Tag = worker id: simultaneous arrivals reach the master in worker
  // order, the historical (time, worker) sort of the pre-engine loops.
  if (options.partition_gradients && options.wire_frames) {
    sim().schedule_at(*arrival,
                      [&master, frame = std::move(frame)] {
                        master.receive_frame(frame);
                      },
                      id_);
  } else {
    sim().schedule_at(*arrival,
                      [&master, w = id_, payload = std::move(payload)]() mutable {
                        master.receive_result(w, std::move(payload));
                      },
                      id_);
  }
  return compute;
}

RoundOutcome run_round(const CodingScheme& scheme, const Cluster& cluster,
                       const IterationConditions& conditions, Link& link,
                       const RoundOptions& options) {
  const std::size_t m = scheme.num_workers();
  HGC_REQUIRE(cluster.size() == m, "cluster size must match scheme workers");
  HGC_REQUIRE(conditions.size() == m, "conditions size must match workers");
  HGC_REQUIRE(!options.wire_frames || options.partition_gradients,
              "wire frames require partition gradients");

  Simulation sim;
  MasterActor master(sim, scheme, options.decoding_cache);
  master.begin_round(options.iteration);

  RoundOutcome outcome;
  outcome.compute_times.assign(m, std::numeric_limits<double>::infinity());

  // Launch in worker-id order so the link's RNG draws stay in the same
  // order as the pre-engine implementation.
  std::vector<WorkerActor> workers;
  workers.reserve(m);
  const NodeId master_node = m;
  for (WorkerId w = 0; w < m; ++w) {
    workers.emplace_back(sim, w, cluster.worker(w));
    outcome.compute_times[w] = workers.back().begin_round(
        scheme, conditions, link, master_node, master, options,
        outcome.dropped);
  }

  outcome.events_executed = sim.run();

  if (obs::metrics_enabled()) {
    static const obs::Counter rounds =
        obs::Registry::global().counter("engine.rounds");
    static const obs::Counter undecodable =
        obs::Registry::global().counter("engine.rounds_undecodable");
    static const obs::Counter events =
        obs::Registry::global().counter("engine.events");
    rounds.add();
    events.add(outcome.events_executed);
    if (!master.decoded()) undecodable.add();
  }

  if (!master.decoded()) {
    obs::trace_virtual_instant(options.trace_track, 0, "undecodable",
                               "engine", options.trace_time_base);
    return outcome;
  }

  if (obs::metrics_enabled()) {
    static const obs::StatHandle round_time =
        obs::Registry::global().stat("engine.round_time");
    static const obs::QuantileHandle round_latency =
        obs::Registry::global().quantile("engine.round_latency");
    round_time.observe(master.decode_time());
    round_latency.observe(master.decode_time());
  }
  obs::trace_virtual_span(options.trace_track, 0, "round", "engine",
                          options.trace_time_base, master.decode_time(),
                          static_cast<std::int64_t>(master.results_used()));

  outcome.decoded = true;
  outcome.time = master.decode_time();
  outcome.results_used = master.results_used();
  outcome.coefficients = master.coefficients();
  if (options.partition_gradients) outcome.aggregate = master.aggregate();

  // Resource usage: busy = computing time clipped to the round window.
  double busy_total = 0.0;
  for (WorkerId w = 0; w < m; ++w) {
    if (conditions.faulted[w]) continue;
    if (outcome.compute_times[w] == std::numeric_limits<double>::infinity())
      continue;  // idle worker, no data
    busy_total += std::min(outcome.compute_times[w], outcome.time);
  }
  outcome.resource_usage =
      busy_total / (static_cast<double>(m) * outcome.time);
  return outcome;
}

}  // namespace hgc::engine
