// One coded aggregation round as a sorted arrival list.
//
// This is the one round call: sim::run_experiment (and the coded trainer
// hooked onto it) and the `loss` figure cell run their rounds through
// run_round. Every Link answers each message on its own and no worker's
// arrival depends on another's, so a round is fully defined by m arrival
// times. run_round makes one pass in worker-id order (compute, injected
// delay, optional encode, link.transmit; the order keeps a seeded link's
// RNG draws fixed), sorts the arrivals by (time, worker), and feeds them to
// a StreamingDecoder until the first decodable prefix — the T(B, S)
// semantics of Section III-C. Equal arrival times resolve in worker-id
// order.
//
// Two payload modes share that flow:
//   * timing-only (partition_gradients == nullptr): empty payloads; callers
//     want the decode time, coefficients and resource usage (sim/).
//   * real payloads, optionally wire-framed through net/wire with checksums
//     and an iteration tag (net/, the `loss` cell), held until their
//     arrival is fed to the decoder.
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
  /// When set, workers encode these partition gradients (g_j) and the master
  /// reconstructs the aggregate; when null the round is timing-only.
  const std::vector<Vector>* partition_gradients = nullptr;
  /// Serialize payloads into checksummed wire frames (requires gradients).
  bool wire_frames = false;
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
  /// Arrivals fed to the decoder, up to and including the decisive one.
  std::size_t events_executed = 0;
};

/// Run one full round. Workers are nodes 0..m-1, the master is node m (the
/// Link's address space must cover it). Throws std::invalid_argument when the
/// link answers NaN or an arrival before the message was sent.
RoundOutcome run_round(const CodingScheme& scheme, const Cluster& cluster,
                       const IterationConditions& conditions, Link& link,
                       const RoundOptions& options = {});

}  // namespace hgc::engine
