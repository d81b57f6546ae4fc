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
// find_disjoint_groups runs Alg. 2 in one pass. The covers come from an
// exact-cover enumeration (Algorithm-X branching rule: always extend on the
// lowest-index uncovered partition, so each cover is produced exactly once).
// Exact cover is NP-complete in general, so the search carries node/solution
// caps, and on the contiguous cyclic supports the heterogeneity-aware
// allocator emits they do bind:
//   * Table II Cluster-D at s = 2 (k = exact_partition_count = 108) has
//     28,561 exact covers; the search stops at 256 and pruning keeps 1.
//   * scale_cluster(m) at s = 2, k = 2m, hits the 256-cover cap from
//     m = 100 up (1,136 covers exist at m = 100); pruning then keeps 1.
//   * bench_micro_coding's spread_throughputs(m) inputs (heter-aware, s = 1,
//     k = 2m) reach a cap from m = 16: pruning keeps 2 groups at m = 16 and
//     1 at m = 32, against a complete search at m = 8.
// Clusters A–C, and Cluster-D at s = 1 and 3, complete under the caps. The
// `groups.search_truncated` metrics counter counts searches that reached a
// cap, so capped results are visible in a metrics snapshot.
//
// The search keeps one `covered` byte per partition and a CSR list of each
// partition's holders, so each node costs O(|support|) per candidate worker.
// Found covers are not built as worker lists: they are leaves of a trie of
// DFS paths (consecutive covers share the path down to where the DFS
// backtracked), and pruning reads their order and conflicts off the trie.
// Only the kept groups are built as sorted lists, so memory is
// O(m + k + trie nodes + G²/64 words) for G covers found, not O(G·m).
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace hgc {

/// A group: worker ids, sorted ascending.
using Group = std::vector<WorkerId>;

/// Search limits for find_disjoint_groups.
struct GroupSearchLimits {
  std::size_t max_groups = 256;   ///< stop after this many covers found
  std::size_t max_nodes = 200000; ///< stop after this many search nodes
};

/// Alg. 2: the groups a group-based scheme keeps, each sorted ascending and
/// the list in lexicographic order. Condition ⋆: enumerate the exact covers of the k partitions by
/// the workers' assignments (workers with empty assignments never join one),
/// up to `limits`. Condition ⋆⋆: drop covers until the survivors are pairwise
/// worker-disjoint, by the paper's greedy rule — repeatedly remove the cover
/// that intersects the most others (ties: the larger cover, then the later
/// one in sorted order), so small easily-completed groups survive.
std::vector<Group> find_disjoint_groups(const Assignment& assignment,
                                        std::size_t k,
                                        const GroupSearchLimits& limits = {});

}  // namespace hgc
