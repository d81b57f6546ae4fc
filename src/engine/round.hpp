// One coded aggregation round as an arrival list.
//
// This is the one round call: sim::run_experiment (and the coded trainer
// hooked onto it) and the `loss` figure cell run their rounds through
// run_round. No worker's arrival depends on another's, so a round is fully
// defined by m arrival times. run_round makes one pass in worker-id order
// (compute, injected delay, optional encode, link.transmit; the order keeps
// a seeded link's RNG draws fixed), then first_decodable_prefix stops at the
// first decodable prefix in (time, worker) order — the T(B, S) semantics of
// Section III-C, with equal times resolved in worker-id order.
//
// Decoding looks at arrival times only. With partition_gradients null the
// round is timing-only (sim/); otherwise every worker ships its coded
// gradient as a checksummed net/wire frame stamped with the iteration, and
// the master opens only the taken arrivals' frames to combine the aggregate.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/coding_scheme.hpp"
#include "core/decoder.hpp"
#include "engine/link.hpp"

namespace hgc::engine {

/// Optional knobs of run_round.
struct RoundOptions {
  /// When set, workers encode these partition gradients (g_j), ship them as
  /// wire frames, and the master reconstructs the aggregate; when null the
  /// round is timing-only.
  const std::vector<Vector>* partition_gradients = nullptr;
  /// Iteration tag stamped into wire frames.
  std::uint64_t iteration = 0;
  /// Optional LRU of solved decoding coefficients (the paper's Section III-B
  /// storage optimization). Must wrap the round's scheme. Callers running
  /// many rounds against one scheme share it across rounds so repeated
  /// straggler patterns skip the O(s³) solve; not thread-safe, so parallel
  /// callers keep one per thread.
  DecodingCache* decoding_cache = nullptr;
  /// Observability routing — never affects results. When non-zero (and the
  /// tracer is on), the round lays its master/worker timeline out on this
  /// virtual-clock track of the Chrome trace (sweep cells claim
  /// cell.index + 1); 0 = no virtual events.
  std::uint32_t trace_track = 0;
  /// Virtual time (seconds) this round starts at on its track — the
  /// caller's accumulated clock across iterations.
  double trace_time_base = 0.0;
};

/// Outcome of one engine round.
struct RoundOutcome {
  bool decoded = false;
  /// Virtual decode time; +inf when the round never becomes decodable.
  double time = std::numeric_limits<double>::infinity();
  std::size_t results_used = 0;
  std::size_t dropped = 0;  ///< messages the link lost in flight
  std::optional<Vector> coefficients;
  Vector aggregate;  ///< decoded Σ g_j; empty in timing-only rounds
  /// Per-worker pure compute durations (+inf for faulted/idle workers).
  std::vector<double> compute_times;
  /// Fig. 5 metric Σ busy_i / (m · T); 0 when the round failed.
  double resource_usage = 0.0;
  /// Arrivals taken by the master, up to and including the decisive one
  /// (all of them when the round fails).
  std::size_t events_executed = 0;
};

/// Run one full round. Workers are nodes 0..m-1, the master is node m (the
/// Link's address space must cover it). Throws std::invalid_argument when the
/// link answers NaN or an arrival before the message was sent.
RoundOutcome run_round(const CodingScheme& scheme, const Cluster& cluster,
                       const IterationConditions& conditions, Link& link,
                       const RoundOptions& options = {});

}  // namespace hgc::engine
