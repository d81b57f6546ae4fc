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
                         const RoundOptions& options)
    : Actor(sim),
      decoder_(scheme, options.decoding_cache),
      staged_payloads_(options.partition_gradients && !options.wire_frames
                           ? scheme.num_workers()
                           : 0),
      staged_frames_(options.wire_frames ? scheme.num_workers() : 0),
      iteration_(options.iteration) {}

void MasterActor::receive_result(WorkerId w, Vector coded) {
  if (decoder_.ready()) return;  // late arrival after the barrier released
  if (decoder_.add_result(w, std::move(coded))) {
    decode_time_ = sim().now();
    // The BSP barrier is released; nothing later this round matters.
    sim().stop();
  }
}

std::size_t MasterActor::stage_payload(WorkerId w, Vector coded) {
  staged_payloads_[w] = std::move(coded);
  return staged_payloads_[w].size() * sizeof(double);
}

std::size_t MasterActor::stage_frame(WorkerId w,
                                     std::vector<std::byte> frame) {
  staged_frames_[w] = std::move(frame);
  return staged_frames_[w].size();
}

void MasterActor::deliver(WorkerId w) {
  if (!staged_frames_.empty()) {
    GradientMessage message = decode_message(staged_frames_[w]);
    HGC_ASSERT(message.iteration == iteration_, "cross-iteration frame");
    return receive_result(message.worker, std::move(message.payload));
  }
  receive_result(w, staged_payloads_.empty() ? Vector{}
                                             : std::move(staged_payloads_[w]));
}

WorkerActor::WorkerActor(Simulation& sim, WorkerId id, const WorkerSpec& spec)
    : Actor(sim), id_(id), spec_(spec) {}

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

  // Build the payload now (the transmission carries real bytes) and stage
  // it in the master; timing-only rounds stage nothing and deliver an empty
  // vector, so only the event flow is exercised.
  std::size_t bytes = 0;
  if (options.partition_gradients) {
    Vector payload = encode_gradient(scheme, id_, *options.partition_gradients);
    if (options.wire_frames) {
      GradientMessage message;
      message.worker = checked_cast<std::uint32_t>(id_);
      message.iteration = options.iteration;
      message.payload = std::move(payload);
      bytes = master.stage_frame(id_, encode_message(message));
    } else {
      bytes = master.stage_payload(id_, std::move(payload));
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
  sim().schedule_at(*arrival, [&master, w = id_] { master.deliver(w); }, id_);
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
  sim.reserve(m);  // at most one arrival per worker is ever pending
  MasterActor master(sim, scheme, options);

  RoundOutcome outcome;
  outcome.compute_times.assign(m, std::numeric_limits<double>::infinity());

  // Launch in worker-id order so the link's RNG draws stay in the same
  // order as the pre-engine implementation. Arrivals target the master, so
  // a worker is a temporary.
  const NodeId master_node = m;
  for (WorkerId w = 0; w < m; ++w)
    outcome.compute_times[w] =
        WorkerActor(sim, w, cluster.worker(w))
            .begin_round(scheme, conditions, link, master_node, master,
                         options, outcome.dropped);

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
