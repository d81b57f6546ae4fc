// Offline decoding-matrix construction (Eq. 2) and a streaming decoder.
//
// The paper stores the decoding matrix A ∈ R^{S×m} (one row per straggler
// pattern, S = C(m, s)) for "regular" patterns and solves irregular ones in
// real time. StreamingDecoder is that real-time path packaged for the
// simulator and the threaded runtime: feed results as they arrive, ask
// whether the aggregate is ready. QuorumTracker is the gate every streaming
// caller shares: it counts arrivals per decode quorum so the solver only
// runs once a decode can succeed.
#pragma once

#include <optional>
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

/// Per-round arrival counters, one per decode quorum of a scheme. Each
/// arrival costs O(quorums containing w + global quorums); once a quorum is
/// met it stays met until reset(). Since a met quorum is necessary for
/// decoding_coefficients to succeed, every probe made while !met() would
/// return nullopt — skipping them cannot change which arrival decodes
/// first, nor its coefficients.
class QuorumTracker {
 public:
  explicit QuorumTracker(const CodingScheme& scheme);

  /// Count worker w's arrival (each worker at most once per round).
  /// Returns met().
  bool add(WorkerId w);

  bool met() const { return met_; }

  /// Start a new round: all counters back to zero.
  void reset();

 private:
  const CodingScheme& scheme_;
  std::vector<std::size_t> counts_;
  bool met_ = false;
};

/// Master-side streaming decoder. Results are added in arrival order; once
/// a decode quorum is met the decoder solves at every arrival until the
/// prefix decodes, then keeps the coefficients.
class StreamingDecoder {
 public:
  /// `cache`, when non-null, must wrap the same scheme instance; decodability
  /// checks then go through its LRU (the paper's "regular stragglers"
  /// optimization) instead of re-solving per arrival. The cache may be
  /// shared across iterations but not across threads.
  explicit StreamingDecoder(const CodingScheme& scheme,
                            DecodingCache* cache = nullptr);

  /// Record worker w's coded gradient. Returns true if the aggregate became
  /// decodable with this arrival.
  bool add_result(WorkerId w, Vector coded_gradient);

  bool ready() const { return coefficients_.has_value(); }
  std::size_t results_received() const { return received_count_; }

  /// The decoded aggregate Σ g_j. Throws DecodeError if !ready().
  Vector aggregate() const;

  /// Coefficients used for the decode (for inspection/tests).
  const Vector& coefficients() const;

  /// Workers whose results ended up unused (coefficient 0 despite arriving);
  /// feeds the resource-usage metric of Fig. 5.
  std::vector<WorkerId> unused_workers() const;

  /// Reset for the next iteration, keeping the scheme.
  void reset();

 private:
  const CodingScheme& scheme_;
  DecodingCache* cache_;
  QuorumTracker quorums_;
  std::vector<bool> received_;
  std::vector<Vector> coded_;
  std::size_t received_count_ = 0;
  std::optional<Vector> coefficients_;
};

}  // namespace hgc
