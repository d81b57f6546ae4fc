#include "core/groups.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace hgc {
namespace {

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
  std::vector<std::uint8_t> covered;    // per partition, on the current path
  std::vector<std::uint8_t> in_cover;   // per worker, scratch for emit()
  Group chosen = {};
  std::vector<Group> out = {};
  std::size_t nodes = 0;

  bool exhausted() const {
    return out.size() >= limits.max_groups || nodes >= limits.max_nodes;
  }

  bool fits(WorkerId w) const {
    for (PartitionId p : assignment[w])
      if (covered[p]) return false;
    return true;
  }

  void mark(WorkerId w, std::uint8_t value) {
    for (PartitionId p : assignment[w]) covered[p] = value;
  }

  /// Append `chosen` sorted ascending: mark it in the worker bitmap and
  /// scan [min, max], which is linear where a comparison sort of ~m/2 ids
  /// per cover is not.
  void emit() {
    const auto [lo, hi] = std::minmax_element(chosen.begin(), chosen.end());
    const WorkerId first = *lo, last = *hi;
    for (WorkerId w : chosen) in_cover[w] = 1;
    Group& group = out.emplace_back();
    group.reserve(chosen.size());
    for (WorkerId w = first; w <= last; ++w) {
      if (!in_cover[w]) continue;
      in_cover[w] = 0;
      group.push_back(w);
    }
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
        mark(chosen.back(), 0);
        chosen.pop_back();
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
      mark(w, 1);
      enter(top.partition + 1);  // may push, invalidating `top`
    }
  }
};

bool intersects(const Group& a, const Group& b) {
  // Both sorted: linear merge scan.
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j])
      ++i;
    else
      ++j;
  }
  return false;
}

}  // namespace

std::vector<Group> find_all_groups(const Assignment& assignment,
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

  // The search often emits covers already in order (it does on scale_cluster(m)
  // from m = 100 up); checking first skips a sort whose comparisons walk
  // thousand-id common prefixes.
  std::vector<Group> groups = std::move(search.out);
  if (!std::is_sorted(groups.begin(), groups.end()))
    std::sort(groups.begin(), groups.end());
  return groups;
}

std::vector<Group> prune_groups(std::vector<Group> groups) {
  // Conflicts are computed once into an n×n bit matrix (row i, bit j: groups
  // i and j share a worker); each removal then decrements its neighbours'
  // counts, so pruning costs one pass over pairs plus O(n) per removal.
  const std::size_t n = groups.size();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> conflict(n * words, 0);
  std::vector<std::size_t> conflicts(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (intersects(groups[i], groups[j])) {
        conflict[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
        conflict[j * words + i / 64] |= std::uint64_t{1} << (i % 64);
        ++conflicts[i];
        ++conflicts[j];
      }

  std::vector<std::uint8_t> removed(n, 0);
  while (true) {
    // Remove the group with the most conflicts; break ties toward the larger
    // group (harder to complete at runtime), then the later index.
    std::size_t victim = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (removed[i] || conflicts[i] == 0) continue;
      if (victim == n || conflicts[i] > conflicts[victim] ||
          (conflicts[i] == conflicts[victim] &&
           groups[i].size() >= groups[victim].size()))
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

  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (removed[i]) continue;
    if (kept != i) groups[kept] = std::move(groups[i]);
    ++kept;
  }
  groups.resize(kept);
  return groups;
}

bool is_exact_cover(const Assignment& assignment, std::size_t k,
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

bool are_disjoint(const std::vector<Group>& groups) {
  std::vector<WorkerId> all;
  for (const Group& g : groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  return std::adjacent_find(all.begin(), all.end()) == all.end();
}

}  // namespace hgc
