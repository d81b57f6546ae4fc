#include "core/coding_scheme.hpp"

#include <algorithm>

#include "linalg/kernels.hpp"
#include "linalg/workspace.hpp"
#include "util/error.hpp"

namespace hgc {
namespace {
// A least-squares residual at or below this bound certifies
// 1 ∈ rowspan(B_R).
constexpr double kDecodeResidualTolerance = 1e-8;

// Scratch for the row-span solve: the received-row selection, the packed
// B_Rᵀ and its QR factors, the all-ones rhs and the solution.
struct RowSpanWorkspace {
  std::vector<std::size_t> rows;
  QrWorkspace qr;
  Vector ones;
  Vector x;
};

// One workspace per thread: the sweep runtime's worker threads each warm up
// their own buffers once and then solve allocation-free. Results never
// depend on workspace history, so this cannot perturb determinism.
RowSpanWorkspace& thread_workspace() {
  thread_local RowSpanWorkspace ws;
  return ws;
}

// Solve B_Rᵀ·x = 1 (k equations, |R| unknowns) in least squares; true when
// the residual certifies 1 ∈ rowspan(B_R), with x left in ws.x.
bool solve_ones_in_row_span(const SparseRowMatrix& b,
                            std::span<const std::size_t> rows,
                            RowSpanWorkspace& ws) {
  if (rows.empty()) return false;
  ws.qr.factor_transposed(b, rows);
  ws.ones.assign(b.cols(), 1.0);
  return ws.qr.solve_into(ws.ones, ws.x) <= kDecodeResidualTolerance;
}

void check_shape(const SparseRowMatrix& b, std::size_t assignment_rows,
                 std::size_t s) {
  HGC_REQUIRE(assignment_rows == b.rows(),
              "assignment must have one entry per worker");
  HGC_REQUIRE(s < b.rows(),
              "cannot tolerate as many stragglers as there are workers");
}

void check_quorums(const std::vector<DecodeQuorum>& quorums, std::size_t m) {
  HGC_REQUIRE(!quorums.empty(), "a scheme needs at least one decode quorum");
  for (const DecodeQuorum& quorum : quorums) {
    HGC_REQUIRE(quorum.need > 0, "a decode quorum needs at least one result");
    for (WorkerId w : quorum.workers)
      HGC_REQUIRE(w < m, "quorum worker id out of range");
  }
}
}  // namespace

CodingScheme::CodingScheme(SparseRowMatrix b, Assignment assignment,
                           std::size_t s, std::vector<DecodeQuorum> quorums)
    : coding_matrix_(std::move(b)),
      assignment_(std::move(assignment)),
      s_(s),
      quorums_(std::move(quorums)) {
  check_shape(coding_matrix_, assignment_.size(), s_);
  check_quorums(quorums_, num_workers());
  // The coding matrix's support must match the declared assignment exactly;
  // the simulator derives per-worker compute load from the assignment and
  // the decoder trusts the matrix, so a mismatch would silently skew both.
  // Sparse rows store exactly the nonzeros in ascending column order, so
  // this is a direct O(nnz) sequence compare — not the old O(m·k) scan.
  for (std::size_t w = 0; w < assignment_.size(); ++w) {
    const auto cols = coding_matrix_.row_cols(w);
    HGC_REQUIRE(std::equal(cols.begin(), cols.end(), assignment_[w].begin(),
                           assignment_[w].end()),
                "coding-matrix support differs from assignment");
  }
}

CodingScheme::CodingScheme(SparseRowMatrix b, std::size_t s,
                           std::vector<DecodeQuorum> quorums)
    : coding_matrix_(std::move(b)), s_(s), quorums_(std::move(quorums)) {
  check_shape(coding_matrix_, coding_matrix_.rows(), s_);
  check_quorums(quorums_, num_workers());
  // The assignment IS the row structure: supp(b_w), already ascending.
  assignment_.resize(coding_matrix_.rows());
  for (std::size_t w = 0; w < coding_matrix_.rows(); ++w) {
    const auto cols = coding_matrix_.row_cols(w);
    assignment_[w].assign(cols.begin(), cols.end());
  }
}

bool CodingScheme::quorum_met(const std::vector<bool>& received) const {
  HGC_REQUIRE(received.size() == num_workers(),
              "received flags must have one entry per worker");
  for (const DecodeQuorum& quorum : quorums_) {
    std::size_t count = 0;
    if (quorum.workers.empty())
      count = count_received(received);
    else
      for (WorkerId w : quorum.workers) count += received[w] ? 1 : 0;
    if (count >= quorum.need) return true;
  }
  return false;
}

bool ones_in_row_span(const SparseRowMatrix& b,
                      std::span<const std::size_t> rows) {
  return solve_ones_in_row_span(b, rows, thread_workspace());
}

std::optional<Vector> CodingScheme::generic_decode(
    const std::vector<bool>& received) const {
  HGC_REQUIRE(received.size() == num_workers(),
              "received flags must have one entry per worker");
  RowSpanWorkspace& ws = thread_workspace();
  std::vector<std::size_t>& rows = ws.rows;
  rows.clear();
  for (std::size_t w = 0; w < received.size(); ++w)
    if (received[w]) rows.push_back(w);
  if (!solve_ones_in_row_span(coding_matrix_, rows, ws)) return std::nullopt;

  Vector coefficients(num_workers(), 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i)
    coefficients[rows[i]] = ws.x[i];
  return coefficients;
}

Vector encode_gradient(const CodingScheme& scheme, WorkerId worker,
                       const std::vector<Vector>& partition_gradients) {
  HGC_REQUIRE(worker < scheme.num_workers(), "worker id out of range");
  HGC_REQUIRE(partition_gradients.size() == scheme.num_partitions(),
              "need one gradient slot per partition");
  const SparseRowMatrix& b = scheme.sparse_matrix();
  const auto cols = b.row_cols(worker);
  const auto values = b.row_values(worker);
  if (cols.empty()) return {};

  // Same coefficients in the same ascending-partition order as the old
  // dense-indexed loop, so every axpy — and every output byte — matches.
  const std::size_t dim = partition_gradients[cols.front()].size();
  Vector coded(dim, 0.0);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const Vector& g = partition_gradients[cols[i]];
    HGC_REQUIRE(g.size() == dim, "partition gradients must share a dimension");
    kernels::axpy(values[i], g, coded);
  }
  return coded;
}

Vector combine_coded_gradients(std::span<const double> coefficients,
                               const std::vector<Vector>& coded) {
  HGC_REQUIRE(coefficients.size() == coded.size(),
              "one coefficient per worker result");
  std::size_t dim = 0;
  for (std::size_t w = 0; w < coded.size(); ++w)
    if (coefficients[w] != 0.0 && !coded[w].empty()) {
      dim = coded[w].size();
      break;
    }
  Vector aggregate(dim, 0.0);
  for (std::size_t w = 0; w < coded.size(); ++w) {
    if (coefficients[w] == 0.0) continue;
    HGC_REQUIRE(!coded[w].empty(),
                "nonzero coefficient for a worker that sent no result");
    HGC_REQUIRE(coded[w].size() == dim, "coded gradients must share a size");
    kernels::axpy(coefficients[w], coded[w], aggregate);
  }
  return aggregate;
}

}  // namespace hgc
