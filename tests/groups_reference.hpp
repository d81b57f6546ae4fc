// Checkers for Alg. 2's two conditions, which the group tests hold every
// kept group to: condition ⋆ (a group exactly partitions the dataset) and
// condition ⋆⋆ (kept groups are pairwise worker-disjoint).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/groups.hpp"
#include "core/types.hpp"

namespace hgc {

/// True iff `group` exactly partitions the k partitions (condition ⋆).
inline bool is_exact_cover(const Assignment& assignment, std::size_t k,
                           const Group& group) {
  std::vector<std::size_t> copies(k, 0);
  for (WorkerId w : group) {
    if (w >= assignment.size()) return false;
    for (PartitionId p : assignment[w]) {
      if (p >= k) return false;
      ++copies[p];
    }
  }
  return std::all_of(copies.begin(), copies.end(),
                     [](std::size_t c) { return c == 1; });
}

/// True iff all groups are pairwise worker-disjoint (condition ⋆⋆).
inline bool are_disjoint(const std::vector<Group>& groups) {
  std::vector<WorkerId> all;
  for (const Group& g : groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  return std::adjacent_find(all.begin(), all.end()) == all.end();
}

}  // namespace hgc
