// The paper's second contribution (Section V): the group-based coding scheme
// (Alg. 3). Built on the same heterogeneity-aware allocation as Alg. 1, it
// detects groups — worker sets whose assignments exactly partition the data —
// sets their coefficients to 1, and covers the remaining workers with an
// Alg. 1 code of tolerance s−P (P = number of kept groups).
//
// Why it helps: a complete group decodes by plain summation using only |G|
// results, often far fewer than the m−s results Alg. 1 needs. When throughput
// estimates are imperfect (the practical regime the paper targets), whichever
// group happens to finish first bounds the iteration, shaving the tail that
// estimation error would otherwise add.
#pragma once

#include "core/alg1.hpp"
#include "core/coding_scheme.hpp"
#include "core/groups.hpp"
#include "util/rng.hpp"

namespace hgc {

/// Group-based gradient coding scheme (Alg. 2 + Alg. 3).
class GroupBasedScheme : public CodingScheme {
 public:
  /// Build from throughput estimates. `limits` bounds the exact-cover
  /// search; defaults are generous for the allocator's cyclic supports.
  GroupBasedScheme(const Throughputs& c, std::size_t k, std::size_t s,
                   Rng& rng, const GroupSearchLimits& limits = {});

  std::string name() const override { return "group-based"; }

  /// Decoding order mirrors Alg. 3: (1) any complete group sums directly,
  /// (2) the Alg.1 sub-code over non-group workers (tolerance s−P),
  /// (3) generic least-squares once enough results arrived (covers mixed
  /// combinations the two fast paths cannot express). Each route is one
  /// decode quorum: every kept group, the sub-code workers, and a global
  /// quorum of active − s.
  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const override;

  /// Kept (pairwise-disjoint) groups; P = groups().size() ≤ s+1.
  const std::vector<Group>& groups() const { return groups_; }

  /// The Alg.1 code over non-group workers; empty when P = s+1.
  const Alg1Code& sub_code() const { return sub_code_; }

  struct Build;  // implementation detail, defined in the .cpp

 private:
  explicit GroupBasedScheme(Build build, std::size_t s);

  std::vector<Group> groups_;
  Alg1Code sub_code_;
  std::size_t active_;  ///< workers holding at least one partition
};

}  // namespace hgc
