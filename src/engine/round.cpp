#include "engine/round.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checked_cast.hpp"
#include "util/error.hpp"

namespace hgc::engine {

RoundOutcome run_round(const CodingScheme& scheme, const Cluster& cluster,
                       const IterationConditions& conditions, Link& link,
                       const RoundOptions& options) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t m = scheme.num_workers();
  HGC_REQUIRE(cluster.size() == m, "cluster size must match scheme workers");
  HGC_REQUIRE(conditions.size() == m, "conditions size must match workers");

  const std::uint32_t track = options.trace_track;
  const double base = options.trace_time_base;
  RoundOutcome outcome;
  outcome.compute_times.assign(m, kInf);
  // Wire frames in flight, one slot per worker in payload rounds and none
  // in timing-only rounds.
  std::vector<std::vector<std::byte>> frames(
      options.partition_gradients ? m : 0);
  std::vector<Arrival> arrivals;
  arrivals.reserve(m);

  // Launch in worker-id order so a seeded link's RNG draws (and the trace)
  // come in the same order on every run.
  const NodeId master_node = m;
  for (WorkerId w = 0; w < m; ++w) {
    // Virtual-clock trace row for this worker (row 0 is the master's).
    const auto row = checked_cast<std::uint32_t>(w + 1);
    if (conditions.faulted[w] || scheme.load(w) == 0) {
      if (conditions.faulted[w])
        obs::trace_virtual_instant(track, row, "fault", "engine", base);
      continue;
    }

    const double rate =
        cluster.worker(w).throughput * conditions.speed_factor[w];
    HGC_ASSERT(rate > 0.0, "effective worker rate must be positive");
    const double share = static_cast<double>(scheme.load(w)) /
                         static_cast<double>(scheme.num_partitions());
    const double compute = share / rate;
    const double send_time = compute + conditions.delay[w];
    outcome.compute_times[w] = compute;
    obs::trace_virtual_span(track, row, "compute", "engine", base, compute);
    if (conditions.delay[w] > 0.0)
      obs::trace_virtual_span(track, row, "straggle", "engine",
                              base + compute, conditions.delay[w]);

    // Build the frame now: the transmission carries real bytes.
    std::size_t bytes = 0;
    if (options.partition_gradients) {
      frames[w] = encode_message(
          {.worker = checked_cast<std::uint32_t>(w),
           .iteration = options.iteration,
           .payload = encode_gradient(scheme, w, *options.partition_gradients)});
      bytes = frames[w].size();
    }

    const auto arrival = link.transmit(w, master_node, bytes, send_time);
    if (!arrival) {
      ++outcome.dropped;  // lost in flight: one more silent straggler
      obs::trace_virtual_instant(track, row, "lost", "engine",
                                 base + send_time);
      continue;
    }
    // Also rejects NaN, which would leave the arrival order undefined.
    HGC_REQUIRE(*arrival >= send_time,
                "link answered a NaN or pre-send arrival for worker " +
                    std::to_string(w));
    obs::trace_virtual_span(track, row, "transmit", "engine",
                            base + send_time, *arrival - send_time);
    arrivals.emplace_back(*arrival, w);
  }

  // The master stops at the first decodable prefix: the BSP barrier is
  // released, nothing later matters.
  DecodablePrefix prefix =
      first_decodable_prefix(scheme, arrivals, options.decoding_cache);
  outcome.events_executed = prefix.taken;

  if (obs::metrics_enabled()) {
    static const obs::Counter rounds =
        obs::Registry::global().counter("engine.rounds");
    static const obs::Counter undecodable =
        obs::Registry::global().counter("engine.rounds_undecodable");
    static const obs::Counter events =
        obs::Registry::global().counter("engine.events");
    rounds.add();
    events.add(outcome.events_executed);
    if (!prefix.decisive) undecodable.add();
  }

  if (!prefix.decisive) {
    obs::trace_virtual_instant(track, 0, "undecodable", "engine", base);
    return outcome;
  }

  const double decode_time = prefix.decisive->first;
  if (obs::metrics_enabled()) {
    static const obs::StatHandle round_time =
        obs::Registry::global().stat("engine.round_time");
    static const obs::QuantileHandle round_latency =
        obs::Registry::global().quantile("engine.round_latency");
    round_time.observe(decode_time);
    round_latency.observe(decode_time);
  }
  obs::trace_virtual_span(track, 0, "round", "engine", base, decode_time,
                          static_cast<std::int64_t>(prefix.taken));

  outcome.decoded = true;
  outcome.time = decode_time;
  outcome.results_used = prefix.taken;
  outcome.coefficients = std::move(prefix.coefficients);

  // Only the taken arrivals' frames are opened; later ones were never read.
  if (options.partition_gradients) {
    std::vector<Vector> coded(m);
    for (const auto& [time, w] : std::span(arrivals).first(prefix.taken)) {
      GradientMessage message = decode_message(frames[w]);
      HGC_ASSERT(message.iteration == options.iteration,
                 "cross-iteration frame");
      HGC_ASSERT(message.worker == w, "frame from another worker");
      coded[w] = std::move(message.payload);
    }
    outcome.aggregate = combine_coded_gradients(*outcome.coefficients, coded);
  }

  // Resource usage: busy = computing time clipped to the round window.
  double busy_total = 0.0;
  for (WorkerId w = 0; w < m; ++w) {
    // Faulted and data-less workers never computed.
    if (outcome.compute_times[w] == kInf) continue;
    busy_total += std::min(outcome.compute_times[w], outcome.time);
  }
  outcome.resource_usage =
      busy_total / (static_cast<double>(m) * outcome.time);
  return outcome;
}

}  // namespace hgc::engine
