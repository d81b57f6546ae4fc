// Offline decoding-matrix construction (Eq. 2) and the real-time decode rule.
//
// The paper stores the decoding matrix A ∈ R^{S×m} (one row per straggler
// pattern, S = C(m, s)) for "regular" patterns and solves irregular ones in
// real time: a BSP round (Section III-C) takes results in arrival order and
// stops at the first prefix that decodes. first_decodable_prefix is that
// rule, for every caller: a simulated round hands it the whole round's
// arrivals, the threaded master its growing list after each result (with a
// DecodingCache, so prefixes that already failed cost a lookup). It gates
// on the scheme's decode quorums, found by selection, so the solver only
// runs once a decode can succeed.
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

/// One result reaching the master: (arrival time, worker).
using Arrival = std::pair<double, WorkerId>;

/// What first_decodable_prefix found.
struct DecodablePrefix {
  std::size_t taken = 0;  ///< up to the decisive arrival, else all of them
  std::optional<Arrival> decisive;  ///< unset when no prefix decodes
  std::optional<Vector> coefficients;  ///< set iff `decisive` is
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

}  // namespace hgc
