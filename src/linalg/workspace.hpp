// The dense solvers: LU with partial pivoting and column-pivoted Householder
// QR, each over owned, reusable storage.
//
// Two solves back the paper's algorithms. Alg. 1 solves C_p · d = 1 for
// every data partition p; C_p is (s+1)×(s+1) with s small, so a dense LU is
// the right tool (LuWorkspace, implemented in lu.cpp). The master's decode
// test asks whether 1 lies in the row span of the received rows B_R: a
// least-squares solve of B_Rᵀ·x = 1 followed by a residual check (Section
// III-B). B_R can be rank-deficient (group-based codes repeat coefficient-1
// rows), so that factorization must be rank revealing (QrWorkspace,
// implemented in qr.cpp).
//
// A workspace owns the factor, pivot and scratch buffers and reuses them
// call over call: after one warm-up solve per shape, further solves of the
// same (or smaller) shape perform ZERO heap allocations — test_kernels pins
// that with an instrumented allocator.
//
// Threading: a workspace is mutable scratch — never share one across
// threads. Results never depend on workspace history (every factor() fully
// overwrites the packed state), so per-thread reuse cannot perturb the
// sweep's byte-identical-output contract. The decode path keeps one
// workspace per thread via `thread_local` (see core/coding_scheme.cpp),
// which hands each sweep worker thread its own for free.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace hgc {

/// PA = LU with partial pivoting over owned, reusable storage.
class LuWorkspace {
 public:
  /// Copy `a` (square) into the reused buffer and factor. Returns false
  /// when a pivot underflowed the singularity threshold. Throws
  /// std::invalid_argument for non-square input.
  bool factor(const Matrix& a);

  /// Factor the square gather a[:, cols] without materializing select_cols.
  bool factor_cols(const Matrix& a, std::span<const std::size_t> cols);

  /// Solve A·x = b against the last factor; x is resized (no allocation
  /// once its capacity covers the shape). Throws hgc::InternalError when
  /// the factored matrix was singular.
  void solve_into(std::span<const double> b, Vector& x) const;

 private:
  /// Factor lu_ in place (packed L below the diagonal, U on and above it).
  bool factor_packed();

  Matrix lu_;
  std::vector<std::size_t> perm_;  // row permutation
  bool singular_ = false;
};

/// Householder QR with greedy column pivoting (A·P = Q·R) over owned,
/// reusable storage; the rank-revealing least-squares engine behind the
/// decode test.
class QrWorkspace {
 public:
  /// Copy `a` into the reused buffer and factor.
  void factor(const Matrix& a);

  /// Factor (B_R)ᵀ for a row selection of a sparse B (repeats allowed, any
  /// order): each selected row is zero-filled then scattered into its packed
  /// column, with no B_R or transpose temporaries. The packed buffer is
  /// byte-identical to factor() of (B_R)ᵀ gathered from the dense B, so the
  /// factorization is too. Throws std::invalid_argument for an
  /// out-of-range row.
  void factor_transposed(const SparseRowMatrix& b,
                         std::span<const std::size_t> rows);

  std::size_t rank() const { return rank_; }

  /// Least-squares min ‖A·x − b‖₂ against the last factor. Writes the basic
  /// solution into x (resized; free variables zero) and returns the
  /// residual norm.
  double solve_into(std::span<const double> b, Vector& x);

 private:
  /// Factor qr_ in place (R in the upper triangle, reflectors below).
  void factor_packed();

  Matrix qr_;
  Vector beta_;                    // reflector scales
  Vector col_norms_;               // pivot bookkeeping scratch
  Vector update_;                  // trailing-update row scratch
  Vector y_;                       // rhs working copy for solves
  std::vector<std::size_t> perm_;  // column permutation (perm_[j] = original)
  std::size_t rank_ = 0;
};

}  // namespace hgc
