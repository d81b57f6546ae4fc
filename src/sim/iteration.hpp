// Platform parameters of a simulated master/worker round, and the paper's
// ideal round time.
//
// A round itself is engine::run_round (engine/round.hpp): workers start
// computing at t = 0, worker w holding load(w) of the k partitions finishes
// computing at (load/k) / (throughput·speed_factor), then its coded result
// reaches the master after its injected delay plus the communication
// latency (an engine::FixedLatencyLink). The master processes arrivals in
// (time, worker) order and stops at the first decodable prefix — exactly
// the T(B, S) semantics of Section III-C generalized to delayed (not just
// full) stragglers. sim::run_experiment is the multi-round loop.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cluster/cluster.hpp"

namespace hgc {

/// Knobs that are properties of the platform rather than the scheme.
struct SimParams {
  /// Fixed result-transfer latency (seconds) added to every arrival.
  double comm_latency = 0.0;
  /// Observability routing — never affects results. Non-zero assigns the
  /// virtual-clock trace track the engine lays this run's rounds out on
  /// (sweep cells use cell.index + 1); 0 = no virtual trace events.
  std::uint32_t trace_track = 0;
};

/// The balanced-optimum iteration time (s+1)/Σw of Theorem 5 translated to
/// cluster units (datasets/second); what heter-aware achieves with exact
/// estimates and no noise.
double ideal_iteration_time(const Cluster& cluster, std::size_t s);

}  // namespace hgc
