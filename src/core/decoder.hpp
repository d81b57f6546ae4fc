// Offline decoding-matrix construction (Eq. 2) and the real-time decoders.
//
// The paper stores the decoding matrix A ∈ R^{S×m} (one row per straggler
// pattern, S = C(m, s)) for "regular" patterns and solves irregular ones in
// real time: a BSP round (Section III-C) takes results in arrival order and
// stops at the first prefix that decodes. first_decodable_prefix applies
// that rule to a whole round's arrivals, StreamingDecoder one result at a
// time (the threaded master). Both gate on the scheme's decode quorums, so
// the solver only runs once a decode can succeed: the round finds the first
// met quorum by selection, the stream counts arrivals in QuorumTracker.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/coding_scheme.hpp"
#include "core/decoding_cache.hpp"
#include "core/types.hpp"

namespace hgc {

/// One row of the decoding matrix: the straggler pattern it serves and the
/// worker coefficients that recover the gradient under that pattern.
struct DecodingRow {
  StragglerSet stragglers;
  Vector coefficients;  // a_i with supp ⊆ survivors, a·B = 1
};

/// Materialize the full decoding matrix of Eq. 2: one row per pattern of
/// exactly s stragglers. Exponential in m; meant for small m (tests, the
/// paper's "partially stored" table for regular patterns).
std::vector<DecodingRow> build_decoding_matrix(const CodingScheme& scheme);

/// scheme.decoding_coefficients(received) wrapped in the observability
/// layer: counts `decode.solves`, samples `decode.solve_seconds`, and opens
/// a wall-clock "decode_solve" trace span. The single real-time-solve entry
/// point for both the uncached decoder path and a DecodingCache miss —
/// result-identical to calling the scheme directly (everything recorded is
/// out of band).
std::optional<Vector> solve_decoding_coefficients(
    const CodingScheme& scheme, const std::vector<bool>& received);

/// One decode probe of the received set: through `cache` when non-null
/// (which must wrap `scheme`), else solve_decoding_coefficients.
std::optional<Vector> probe_decoding_coefficients(
    const CodingScheme& scheme, const std::vector<bool>& received,
    DecodingCache* cache);

/// Per-round arrival counters, one per decode quorum of a scheme. Each
/// arrival costs O(quorums containing w + global quorums); once a quorum is
/// met it stays met for the round. Since a met quorum is necessary for
/// decoding_coefficients to succeed, every probe made while none is met
/// would return nullopt — skipping them cannot change which arrival decodes
/// first, nor its coefficients.
class QuorumTracker {
 public:
  explicit QuorumTracker(const CodingScheme& scheme);

  /// Count worker w's arrival (each worker at most once per round).
  /// Returns whether some quorum is met.
  bool add(WorkerId w);

  /// The streaming gate-and-probe step: add(w) and, once a quorum is met,
  /// solve the prefix `received` (w already marked).
  std::optional<Vector> add_and_probe(WorkerId w,
                                      const std::vector<bool>& received);

 private:
  const CodingScheme& scheme_;
  std::vector<std::size_t> counts_;
  bool met_ = false;
};

/// One result reaching the master: (arrival time, worker).
using Arrival = std::pair<double, WorkerId>;

/// What first_decodable_prefix found.
struct DecodablePrefix {
  std::size_t taken = 0;  ///< up to the decisive arrival, else all of them
  std::optional<Arrival> decisive;  ///< unset when no prefix decodes
  std::optional<Vector> coefficients;  ///< set iff `decisive` is
  bool quorum_met = false;  ///< whether the taken arrivals met any quorum
};

/// The T(B, S) rule of Section III-C: take `arrivals` (each worker at most
/// once) in (time, worker) order and stop at the first prefix whose received
/// set decodes. Probes (through `cache` when non-null, which must wrap
/// `scheme`) start at the first prefix that meets a decode quorum, found
/// by selecting each quorum's need-th arrival, so no sort: O(m + Σ|quorum|)
/// plus O(log m) per later probe.
/// On return the first `taken` entries of `arrivals` are the taken ones;
/// callers must not rely on the order of either part.
DecodablePrefix first_decodable_prefix(const CodingScheme& scheme,
                                       std::span<Arrival> arrivals,
                                       DecodingCache* cache = nullptr);

/// Master-side streaming decoder for the threaded trainer: one decoder per
/// iteration, results added in arrival order. Once a decode quorum is met it
/// solves at every arrival until the prefix decodes, then keeps the
/// coefficients; later results are recorded but unused.
class StreamingDecoder {
 public:
  explicit StreamingDecoder(const CodingScheme& scheme);

  /// Record worker w's coded gradient. Returns true if the aggregate became
  /// decodable with this arrival.
  bool add_result(WorkerId w, Vector coded_gradient);

  bool ready() const { return coefficients_.has_value(); }

  /// The decoded aggregate Σ g_j. Throws DecodeError if !ready().
  Vector aggregate() const;

 private:
  QuorumTracker quorums_;
  std::vector<bool> received_;
  std::vector<Vector> coded_;
  std::optional<Vector> coefficients_;
};

}  // namespace hgc
