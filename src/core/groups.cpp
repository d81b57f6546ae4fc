#include "core/groups.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "util/checked_cast.hpp"
#include "util/error.hpp"

namespace hgc {
namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// One worker on the DFS path of one or more found covers. Nodes are
/// created in DFS preorder, so the covers below a node are a contiguous
/// range [first_cover, last_cover] of the emission order.
struct TrieNode {
  std::uint32_t worker;
  std::uint32_t parent;  ///< kNone for a branch (depth-0) node
  std::uint32_t branch;  ///< the depth-0 ancestor: the partition-0 holder
  std::uint32_t first_cover;
  std::uint32_t last_cover = 0;  ///< set once the search is done
};

/// Exact-cover DFS over one `covered` byte per partition. A worker fits iff
/// none of its partitions is covered yet, so a fit check and a mark/unmark
/// cost O(|support|), independent of k.
struct GroupSearch {
  const Assignment& assignment;
  /// holders[holder_begin[p] .. holder_begin[p+1]): workers holding
  /// partition p, ascending.
  std::span<const std::size_t> holder_begin;
  std::span<const WorkerId> holders;
  const GroupSearchLimits& limits;
  std::vector<std::uint8_t> covered;  // per partition, on the current path
  std::vector<std::uint8_t> mark;     // per worker, scratch, left all zero
  Group chosen = {};
  std::size_t nodes = 0;

  /// The covers found: trie leaves and sizes, in emission order.
  std::vector<TrieNode> trie = {};
  std::vector<std::uint32_t> covers = {};
  std::vector<std::size_t> cover_sizes = {};
  /// path[d]: the trie node of chosen[d] for d < shared; past that, the
  /// previous cover's nodes. chosen[0, shared) is unchanged since the last
  /// emit.
  std::vector<std::uint32_t> path = {};
  std::size_t shared = 0;
  /// Whether the covers so far came out in ascending sorted-list order.
  bool in_order = true;

  bool exhausted() const {
    return covers.size() >= limits.max_groups || nodes >= limits.max_nodes;
  }

  bool fits(WorkerId w) const {
    for (PartitionId p : assignment[w])
      if (covered[p]) return false;
    return true;
  }

  void mark_partitions(WorkerId w, std::uint8_t value) {
    for (PartitionId p : assignment[w]) covered[p] = value;
  }

  /// Whether `chosen` sorts after the previous cover as a sorted id list.
  /// Below their shared path the two differ in suffixes A (previous) and B;
  /// two distinct exact covers order by whichever holds min(A Δ B), so this
  /// costs O(|A| + |B|) rather than a walk over both covers.
  bool follows_previous() {
    for (std::size_t d = shared; d < path.size(); ++d)
      mark[trie[path[d]].worker] = 1;
    WorkerId min_new = std::numeric_limits<WorkerId>::max();
    for (std::size_t d = shared; d < chosen.size(); ++d) {
      if (mark[chosen[d]])
        mark[chosen[d]] = 2;  // in both suffixes
      else
        min_new = std::min(min_new, chosen[d]);
    }
    WorkerId min_previous = std::numeric_limits<WorkerId>::max();
    for (std::size_t d = shared; d < path.size(); ++d) {
      const WorkerId w = trie[path[d]].worker;
      if (mark[w] == 1) min_previous = std::min(min_previous, w);
      mark[w] = 0;
    }
    return min_previous < min_new;
  }

  /// Record `chosen` as a cover: trie nodes for the part of its path below
  /// the previous cover's.
  void emit() {
    if (in_order && !covers.empty()) in_order = follows_previous();
    const auto cover = checked_cast<std::uint32_t>(covers.size());
    path.resize(chosen.size());
    for (std::size_t d = shared; d < chosen.size(); ++d) {
      const auto id = checked_cast<std::uint32_t>(trie.size());
      const std::uint32_t parent = d == 0 ? kNone : path[d - 1];
      trie.push_back({checked_cast<std::uint32_t>(chosen[d]), parent,
                      d == 0 ? id : trie[parent].branch, cover});
      path[d] = id;
    }
    covers.push_back(path.back());
    cover_sizes.push_back(chosen.size());
    shared = chosen.size();
  }

  /// One open branch point: the uncovered partition being supplied and the
  /// next of its holders to try.
  struct Frame {
    std::size_t partition;
    std::size_t next;
  };
  std::vector<Frame> stack = {};

  /// Enters a search node. `lowest` is a lower bound on the lowest uncovered
  /// partition: every partition below it is covered on the current path.
  void enter(std::size_t lowest) {
    if (exhausted()) return;
    ++nodes;
    while (lowest < covered.size() && covered[lowest]) ++lowest;
    if (lowest == covered.size()) {
      // All partitions covered: `chosen` is an exact cover.
      emit();
      return;
    }
    stack.push_back({lowest, holder_begin[lowest]});
  }

  /// Depth-first enumeration with an explicit stack (one frame per chosen
  /// worker), so the depth — about m/2 on scale clusters — costs heap, not
  /// call stack. Branches on the lowest uncovered partition: exactly one
  /// worker in any cover supplies it, so every cover is enumerated exactly
  /// once.
  void run() {
    enter(0);
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (chosen.size() == stack.size()) {
        // Back from the subtree under top's last choice: undo it.
        mark_partitions(chosen.back(), 0);
        chosen.pop_back();
        shared = std::min(shared, chosen.size());
        if (exhausted()) return;
      }
      const std::size_t end = holder_begin[top.partition + 1];
      while (top.next < end && !fits(holders[top.next])) ++top.next;
      if (top.next == end) {
        stack.pop_back();
        continue;
      }
      const WorkerId w = holders[top.next++];
      chosen.push_back(w);
      mark_partitions(w, 1);
      enter(top.partition + 1);  // may push, invalidating `top`
    }
  }
};

/// The cover ending at trie node `leaf` as a sorted list: mark its path in
/// the worker bitmap `in_cover` (left all zero) and scan [min, max], which
/// is linear where a comparison sort of ~m/2 ids is not.
Group sorted_cover(std::span<const TrieNode> trie, std::uint32_t leaf,
                   std::vector<std::uint8_t>& in_cover) {
  WorkerId first = std::numeric_limits<WorkerId>::max(), last = 0;
  std::size_t size = 0;
  for (std::uint32_t x = leaf; x != kNone; x = trie[x].parent) {
    const WorkerId w = trie[x].worker;
    in_cover[w] = 1;
    first = std::min(first, w);
    last = std::max(last, w);
    ++size;
  }
  Group group;
  group.reserve(size);
  for (WorkerId w = first; w <= last; ++w) {
    if (!in_cover[w]) continue;
    in_cover[w] = 0;
    group.push_back(w);
  }
  return group;
}

/// Condition ⋆⋆ over the found covers. Two covers conflict iff some worker
/// lies on both trie paths. Covers below one branch node share its worker,
/// so each branch's cover range is a clique; beyond that only a worker with
/// nodes under two or more branches joins covers across branches. Conflicts
/// go into a G×G bit matrix (row i, bit j: covers i and j share a worker);
/// each removal then decrements its neighbours' counts.
std::vector<Group> prune(GroupSearch& search) {
  std::vector<TrieNode>& trie = search.trie;
  const std::size_t n = search.covers.size();
  if (n == 0) return {};

  // Preorder: every child follows its parent, so one reverse pass closes
  // each node's cover range.
  for (std::uint32_t leaf = 0; leaf < n; ++leaf)
    trie[search.covers[leaf]].last_cover = leaf;
  for (std::size_t x = trie.size(); x-- > 0;) {
    const TrieNode& node = trie[x];
    if (node.parent != kNone)
      trie[node.parent].last_cover =
          std::max(trie[node.parent].last_cover, node.last_cover);
  }

  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> conflict(n * words, 0);
  std::vector<std::uint64_t> clique(words);
  const auto add_range = [&](const TrieNode& node) {
    for (std::size_t j = node.first_cover; j <= node.last_cover; ++j)
      clique[j / 64] |= std::uint64_t{1} << (j % 64);
  };
  // Every cover in `clique` conflicts with every other one.
  const auto join_clique = [&] {
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t bits = clique[w]; bits != 0; bits &= bits - 1) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        for (std::size_t v = 0; v < words; ++v)
          conflict[i * words + v] |= clique[v];
      }
    std::fill(clique.begin(), clique.end(), 0);
  };

  constexpr std::uint32_t kMixed = kNone - 1;
  std::vector<std::uint32_t> branch_of(search.mark.size(), kNone);
  for (const TrieNode& node : trie) {
    if (node.parent == kNone) {
      add_range(node);
      join_clique();
    }
    std::uint32_t& branch = branch_of[node.worker];
    if (branch == kNone)
      branch = node.branch;
    else if (branch != node.branch)
      branch = kMixed;
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mixed;  // worker, node
  for (std::uint32_t x = 0; x < trie.size(); ++x)
    if (branch_of[trie[x].worker] == kMixed)
      mixed.emplace_back(trie[x].worker, x);
  std::sort(mixed.begin(), mixed.end());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    add_range(trie[mixed[i].second]);
    if (i + 1 == mixed.size() || mixed[i + 1].first != mixed[i].first)
      join_clique();
  }

  const std::vector<std::size_t>& size = search.cover_sizes;
  std::vector<std::size_t> conflicts(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    conflict[i * words + i / 64] &= ~(std::uint64_t{1} << (i % 64));
    for (std::size_t v = 0; v < words; ++v)
      conflicts[i] += static_cast<std::size_t>(
          std::popcount(conflict[i * words + v]));
  }

  // The sorted-list order ranks the covers. The DFS usually emits them in
  // it (it does on scale_cluster(m) from m = 100 up); otherwise build the
  // lists and sort.
  std::vector<Group> lists;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (!search.in_order) {
    for (std::uint32_t leaf : search.covers)
      lists.push_back(sorted_cover(trie, leaf, search.mark));
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return lists[a] < lists[b]; });
  }
  std::vector<std::size_t> rank(n);
  for (std::size_t r = 0; r < n; ++r) rank[order[r]] = r;

  std::vector<std::uint8_t> removed(n, 0);
  while (true) {
    // Remove the cover with the most conflicts; break ties toward the
    // larger cover (harder to complete at runtime), then the later one.
    std::size_t victim = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (removed[i] || conflicts[i] == 0) continue;
      if (victim == n || conflicts[i] > conflicts[victim] ||
          (conflicts[i] == conflicts[victim] &&
           (size[i] > size[victim] ||
            (size[i] == size[victim] && rank[i] > rank[victim]))))
        victim = i;
    }
    if (victim == n) break;  // survivors are pairwise disjoint

    removed[victim] = 1;
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t bits = conflict[victim * words + w]; bits != 0;
           bits &= bits - 1) {
        const std::size_t j =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (!removed[j]) --conflicts[j];
      }
  }

  std::vector<Group> kept;
  for (std::size_t i : order) {
    if (removed[i]) continue;
    kept.push_back(lists.empty()
                       ? sorted_cover(trie, search.covers[i], search.mark)
                       : std::move(lists[i]));
  }
  return kept;
}

}  // namespace

std::vector<Group> find_disjoint_groups(const Assignment& assignment,
                                        std::size_t k,
                                        const GroupSearchLimits& limits) {
  HGC_REQUIRE(k > 0, "need at least one partition");
  const std::size_t m = assignment.size();

  // Holders of each partition as one CSR array (counting sort by partition),
  // filled in worker order so each partition's list is ascending.
  std::vector<std::size_t> holder_begin(k + 1, 0);
  for (const auto& partitions : assignment)
    for (PartitionId p : partitions) {
      HGC_REQUIRE(p < k, "partition id out of range");
      ++holder_begin[p + 1];
    }
  for (std::size_t p = 0; p < k; ++p) holder_begin[p + 1] += holder_begin[p];
  std::vector<WorkerId> holders(holder_begin[k]);
  std::vector<std::size_t> next(holder_begin.begin(), holder_begin.end() - 1);
  for (WorkerId w = 0; w < m; ++w)
    for (PartitionId p : assignment[w]) {
      // The last holder filled for p is w only if w lists p twice.
      HGC_REQUIRE(next[p] == holder_begin[p] || holders[next[p] - 1] != w,
                  "worker " + std::to_string(w) + " lists partition " +
                      std::to_string(p) + " more than once");
      holders[next[p]++] = w;
    }

  GroupSearch search{assignment, holder_begin, holders, limits,
                     std::vector<std::uint8_t>(k, 0),
                     std::vector<std::uint8_t>(m, 0)};
  search.run();
  // The search stopped at a cap, so covers past it may be missing.
  if (search.exhausted() && obs::metrics_enabled()) {
    static const obs::Counter truncated =
        obs::Registry::global().counter("groups.search_truncated");
    truncated.add();
  }
  return prune(search);
}

}  // namespace hgc
