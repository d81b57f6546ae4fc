// Abstract interface of a gradient coding strategy (Section III-B).
//
// A scheme owns the coding matrix B ∈ R^{m×k}: row i holds worker i's linear
// encoding coefficients, its support is worker i's data assignment. The only
// runtime question the master ever asks is: "given which workers have
// responded so far, can I reconstruct Σ g_j — and with what coefficients?"
// decoding_coefficients() answers it; everything else is bookkeeping.
//
// B is ≤(s+1)-sparse per row for every paper scheme, so its ONE form is a
// SparseRowMatrix: construction, encode, decode packing and the
// load/assignment accessors all run off nonzero structure — O(m·s) instead
// of the dense O(m·k) that walls out 10k-worker clusters. No dense copy of B
// is ever built in the library; tests build one at toy size from
// sparse_matrix().
//
// The master's one linear-algebra question — does 1 lie in the row span of
// B_R, and with which coefficients — is answered by one least-squares solve
// (ones_in_row_span below). generic_decode and the robustness checks all go
// through it.
//
// Each scheme also declares its decode quorums: necessary conditions for
// decoding_coefficients to succeed. first_decodable_prefix (core/decoder)
// only solves from the first arrival at which one is met.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/types.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace hgc {

/// A worker set plus a threshold (need ≥ 1). Contract:
/// decoding_coefficients(R) may return a value only if some quorum of the
/// scheme has at least `need` of its workers in R. An empty worker list
/// means every worker counts.
struct DecodeQuorum {
  std::vector<WorkerId> workers;
  std::size_t need = 0;
};

/// Base class for all gradient coding strategies.
class CodingScheme {
 public:
  virtual ~CodingScheme() = default;

  CodingScheme(const CodingScheme&) = delete;
  CodingScheme& operator=(const CodingScheme&) = delete;

  /// Human-readable scheme name ("heter-aware", "cyclic", ...).
  virtual std::string name() const = 0;

  std::size_t num_workers() const { return coding_matrix_.rows(); }
  std::size_t num_partitions() const { return coding_matrix_.cols(); }

  /// Number of stragglers this instance is provisioned to tolerate.
  std::size_t stragglers_tolerated() const { return s_; }

  /// The coding matrix B (its only form).
  const SparseRowMatrix& sparse_matrix() const { return coding_matrix_; }

  /// Data-partition assignment (supp(b_i) per worker).
  const Assignment& assignment() const { return assignment_; }

  /// Number of partitions worker w computes per iteration (||b_w||_0) —
  /// read straight off the sparse row structure.
  std::size_t load(WorkerId w) const { return coding_matrix_.row_nnz(w); }

  /// Decoding coefficients a with supp(a) ⊆ received and a·B = 1_{1×k}, or
  /// nullopt when the received set cannot reconstruct the gradient yet.
  /// `received[w]` is true when worker w's coded result has arrived.
  virtual std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const = 0;

  /// The scheme's decode quorums (see DecodeQuorum for the contract).
  const std::vector<DecodeQuorum>& quorums() const { return quorums_; }

  /// True when some quorum has at least `need` of its workers received —
  /// the necessary condition for decoding_coefficients to succeed.
  /// O(m + Σ|quorum|).
  bool quorum_met(const std::vector<bool>& received) const;

 protected:
  /// Derived constructors hand over the finished matrix, assignment and
  /// decode quorums; the support of B must equal the assignment exactly
  /// (checked in O(nnz)).
  CodingScheme(SparseRowMatrix b, Assignment assignment, std::size_t s,
               std::vector<DecodeQuorum> quorums);

  /// Same, but the assignment IS the row structure: derived directly from
  /// the sparse rows in O(nnz), no scan, no redundant validation.
  CodingScheme(SparseRowMatrix b, std::size_t s,
               std::vector<DecodeQuorum> quorums);

  /// Generic decodability fallback: the ones_in_row_span solve over the
  /// received rows, its solution scattered to worker slots. Works for any B;
  /// O(k·|R|²). Allocates nothing but the returned coefficient vector once
  /// the calling thread's workspace is warm.
  std::optional<Vector> generic_decode(const std::vector<bool>& received)
      const;

 private:
  // Immutable after construction, so schemes stay shareable across threads.
  SparseRowMatrix coding_matrix_;
  Assignment assignment_;
  std::size_t s_;
  std::vector<DecodeQuorum> quorums_;
};

/// Does 1_{1×k} lie in the row span of B restricted to `rows`? A
/// least-squares solve of B_Rᵀ·x = 1, packed straight from the sparse rows,
/// whose residual must not exceed 1e-8. False for an empty selection. The
/// packed B_Rᵀ and the QR factors live in one workspace per thread, so the
/// check allocates nothing once that workspace is warm.
bool ones_in_row_span(const SparseRowMatrix& b,
                      std::span<const std::size_t> rows);

/// Worker-side encoding: g̃_w = Σ_j B(w,j)·g_j over the partitions worker w
/// holds. `partition_gradients[j]` is g_j; only the supported entries are
/// touched, so callers may leave other slots empty.
Vector encode_gradient(const CodingScheme& scheme, WorkerId worker,
                       const std::vector<Vector>& partition_gradients);

/// Master-side reconstruction: Σ_w a_w·g̃_w. `coded[w]` may be empty when
/// a_w == 0 (worker never responded).
Vector combine_coded_gradients(std::span<const double> coefficients,
                               const std::vector<Vector>& coded);

}  // namespace hgc
