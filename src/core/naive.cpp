#include "core/naive.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hgc {
namespace {

// Sparse m×m identity: O(m) storage instead of the dense O(m²) that made
// the uncoded baseline the most expensive scheme to *construct* at scale.
SparseRowMatrix sparse_identity(std::size_t m) {
  SparseRowBuilder b(m, m);
  for (std::size_t w = 0; w < m; ++w) b.set(w, w, 1.0);
  return b.build();
}

}  // namespace

NaiveScheme::NaiveScheme(std::size_t m)
    : CodingScheme(sparse_identity(m), 0, {{{}, m}}) {
  HGC_REQUIRE(m > 0, "need at least one worker");
}

std::optional<Vector> NaiveScheme::decoding_coefficients(
    const std::vector<bool>& received) const {
  HGC_REQUIRE(received.size() == num_workers(),
              "received flags must have one entry per worker");
  if (!std::all_of(received.begin(), received.end(),
                   [](bool r) { return r; }))
    return std::nullopt;
  return Vector(num_workers(), 1.0);
}

}  // namespace hgc
