// Null-space computation via Gauss-Jordan elimination.
//
// The fast decoding path of the paper (Section III-B / Lemma 2) needs a
// nonzero λ with λ·C_S = 0 for the straggler columns C_S — i.e. a null-space
// vector of C_Sᵀ. The null space is (s+1−|S|)-dimensional, so it always
// exists when |S| ≤ s.
#pragma once

#include "linalg/matrix.hpp"

namespace hgc {

/// Reduced row-echelon form of `a`, in place. The pivot columns land in
/// `pivots` (cleared first; its capacity is reused). Entries of magnitude at
/// most 1e-10 count as zero when choosing pivots.
void reduce_to_rref(Matrix& a, std::vector<std::size_t>& pivots);

/// Basis of the null space {x : a·x = 0}, over caller-owned scratch: `rref`
/// is overwritten with the RREF of `a`, `pivots` with its pivot columns, and
/// `basis` is reshaped to a.cols()×nullity (0 columns when a has full column
/// rank). No heap traffic once the scratch buffers have warmed up to the
/// shape. Used by the Alg. 1 decode hot path with one set per thread.
void null_space_basis_into(const Matrix& a, Matrix& rref,
                           std::vector<std::size_t>& pivots, Matrix& basis);

}  // namespace hgc
