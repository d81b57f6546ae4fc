// Algorithm 2 of the paper: finding and pruning groups.
//
// A *group* is a set of workers whose data assignments exactly partition the
// dataset (condition ⋆: pairwise-disjoint supports whose union is all of D).
// Any fully-arrived group decodes the gradient by plain summation, using as
// few as m−s (often far fewer) results — the lever Section V pulls when
// throughput estimates are noisy. Kept groups must also be pairwise
// worker-disjoint (condition ⋆⋆), which is what lets Theorem 6 charge one
// straggler per damaged group.
//
// FindAllGroups is an exact-cover enumeration (Algorithm-X branching rule:
// always extend on the lowest-index uncovered partition, so each cover is
// produced exactly once). Exact cover is NP-complete in general, so the
// search carries node/solution caps, and on the contiguous cyclic supports
// the heterogeneity-aware allocator emits they do bind:
//   * Table II Cluster-D at s = 2 (k = exact_partition_count = 108) has
//     28,561 exact covers; the search stops at 256 and pruning keeps 1.
//   * scale_cluster(m) at s = 2, k = 2m, hits the 256-cover cap from
//     m = 100 up (1,136 covers exist at m = 100); pruning then keeps 1.
// Clusters A–C, and Cluster-D at s = 1 and 3, complete under the caps. The
// `groups.search_truncated` metrics counter counts searches that reached a
// cap, so capped results are visible in a metrics snapshot.
//
// The search keeps one `covered` byte per partition and a CSR list of each
// partition's holders: memory is O(m + k + output), and each node costs
// O(|support|) per candidate worker.
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace hgc {

/// A group: worker ids, sorted ascending.
using Group = std::vector<WorkerId>;

/// Search limits for FindAllGroups.
struct GroupSearchLimits {
  std::size_t max_groups = 256;   ///< stop after this many covers found
  std::size_t max_nodes = 200000; ///< stop after this many search nodes
};

/// Enumerate worker sets satisfying condition ⋆ (exact covers of the k
/// partitions by the workers' assignments). Workers with empty assignments
/// never join a group.
std::vector<Group> find_all_groups(const Assignment& assignment,
                                   std::size_t k,
                                   const GroupSearchLimits& limits = {});

/// Condition ⋆⋆: drop groups until the survivors are pairwise
/// worker-disjoint. Greedy rule from the paper: repeatedly remove the group
/// that intersects the most others (ties: the larger group, then the later
/// one), so small easily-completed groups survive.
std::vector<Group> prune_groups(std::vector<Group> groups);

/// True iff `group` exactly partitions the k partitions (condition ⋆).
bool is_exact_cover(const Assignment& assignment, std::size_t k,
                    const Group& group);

/// True iff all groups are pairwise worker-disjoint (condition ⋆⋆).
bool are_disjoint(const std::vector<Group>& groups);

}  // namespace hgc
