// One coded aggregation round as a cast of engine actors.
//
// This is the one round call: sim::run_experiment (and the coded trainer
// hooked onto it), the networked trainer and the `loss` figure cell all run
// their rounds through run_round. Every
// WorkerActor computes, waits out its injected delay, and ships its coded
// result through a Link; the MasterActor feeds arrivals to a StreamingDecoder
// and stops the clock at the first decodable prefix. Equal arrival times
// resolve in worker-id order (arrival events are tagged with the worker id),
// matching the previous implementations' (time, worker) sort.
//
// Two payload modes share the same event flow:
//   * timing-only (partition_gradients == nullptr): empty payloads; callers
//     want the decode time, coefficients and resource usage (sim/).
//   * real payloads, optionally wire-framed through net/wire with checksums
//     and an iteration tag (net/, the networked trainer), staged in the
//     master so that the arrival event carries only the worker id.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/coding_scheme.hpp"
#include "core/decoder.hpp"
#include "engine/actor.hpp"
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
  std::size_t events_executed = 0;
};

/// Master side of a round: collects arrivals, decodes at the earliest
/// sufficient set, then stops the simulation.
class MasterActor : public Actor {
 public:
  /// One master per round; `options` sets its cache, mode and frame tag.
  MasterActor(Simulation& sim, const CodingScheme& scheme,
              const RoundOptions& options);

  /// Park worker w's encoded payload or serialized wire frame until its
  /// arrival event calls deliver(w), so that every arrival closure fits
  /// std::function's inline buffer. Returns the message size in bytes.
  std::size_t stage_payload(WorkerId w, Vector coded);
  std::size_t stage_frame(WorkerId w, std::vector<std::byte> frame);

  /// Worker w's staged frame (parsed, iteration tag checked) or payload
  /// arrives now; timing-only rounds stage nothing and deliver it empty.
  void deliver(WorkerId w);

  bool decoded() const { return decoder_.ready(); }
  double decode_time() const { return decode_time_; }
  /// Results received so far; once decoded, the ones the decode used.
  std::size_t results_used() const { return decoder_.results_received(); }
  const Vector& coefficients() const { return decoder_.coefficients(); }
  Vector aggregate() const { return decoder_.aggregate(); }

 private:
  void receive_result(WorkerId w, Vector coded);

  StreamingDecoder decoder_;
  // One slot per worker in the round's payload mode, empty otherwise.
  std::vector<Vector> staged_payloads_;
  std::vector<std::vector<std::byte>> staged_frames_;
  std::uint64_t iteration_;
  double decode_time_ = std::numeric_limits<double>::infinity();
};

/// Worker side of a round: compute the partition share, wait out the injected
/// delay, encode, and transmit to the master through the link.
class WorkerActor : public Actor {
 public:
  WorkerActor(Simulation& sim, WorkerId id, const WorkerSpec& spec);

  /// Launch this worker's part of one round starting at the current virtual
  /// time. Faulted and zero-load workers do nothing. Returns the pure
  /// compute duration (+inf when the worker sits the round out); lost
  /// transmissions bump `dropped`.
  double begin_round(const CodingScheme& scheme,
                     const IterationConditions& conditions, Link& link,
                     NodeId master_node, MasterActor& master,
                     const RoundOptions& options, std::size_t& dropped);

 private:
  WorkerId id_;
  WorkerSpec spec_;
};

/// Run one full round on a fresh event loop. Workers are nodes 0..m-1, the
/// master is node m (the Link's address space must cover it).
RoundOutcome run_round(const CodingScheme& scheme, const Cluster& cluster,
                       const IterationConditions& conditions, Link& link,
                       const RoundOptions& options = {});

}  // namespace hgc::engine
