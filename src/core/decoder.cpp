#include "core/decoder.hpp"

#include <algorithm>
#include <functional>

#include "core/robustness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace hgc {

std::optional<Vector> solve_decoding_coefficients(
    const CodingScheme& scheme, const std::vector<bool>& received) {
  if (!obs::metrics_enabled() && !obs::trace_enabled())
    return scheme.decoding_coefficients(received);

  HGC_TRACE_SCOPE("decode_solve", "decode");
  if (!obs::metrics_enabled()) return scheme.decoding_coefficients(received);

  static const obs::Counter solves =
      obs::Registry::global().counter("decode.solves");
  // Log-spaced upper-inclusive bounds bracketing the µs-to-ms solves the
  // coding-matrix sizes produce; anything slower lands in overflow.
  static const obs::Histogram solve_seconds =
      obs::Registry::global().histogram(
          "decode.solve_seconds",
          {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  solves.add();
  Stopwatch timer;
  auto coefficients = scheme.decoding_coefficients(received);
  solve_seconds.observe(timer.seconds());
  return coefficients;
}

std::vector<DecodingRow> build_decoding_matrix(const CodingScheme& scheme) {
  const std::size_t m = scheme.num_workers();
  const std::size_t s = scheme.stragglers_tolerated();
  std::vector<DecodingRow> rows;
  for_each_straggler_pattern(m, s, [&](const StragglerSet& pattern) {
    std::vector<bool> received(m, true);
    for (WorkerId w : pattern) received[w] = false;
    // Workers with no data never respond regardless of the pattern.
    for (std::size_t w = 0; w < m; ++w)
      if (scheme.load(w) == 0) received[w] = false;
    auto coefficients = scheme.decoding_coefficients(received);
    if (!coefficients) {
      // s = 0 enumerates one empty pattern; naming "the worker starting the
      // pattern" would print m, which is not a worker id.
      if (pattern.empty())
        throw DecodeError(
            "scheme cannot decode even with every data-holding worker "
            "present (empty straggler pattern)");
      throw DecodeError("scheme is not robust to pattern starting at worker " +
                        std::to_string(pattern.front()));
    }
    rows.push_back({pattern, std::move(*coefficients)});
    return true;
  });
  return rows;
}

namespace {

/// first_decodable_prefix's scratch, one per thread (the linalg workspace
/// idiom): once a thread has seen the largest m, a round allocates nothing
/// that grows with m. Results never depend on workspace history.
struct PrefixWorkspace {
  std::vector<bool> received;
  std::vector<double> time_of;   ///< arrival time of each arriving worker
  std::vector<Arrival> members;  ///< one quorum's arriving members
};

PrefixWorkspace& prefix_workspace() {
  thread_local PrefixWorkspace ws;
  return ws;
}

/// One decode probe of the received set: through `cache` when non-null
/// (which must wrap `scheme`), else solve_decoding_coefficients.
std::optional<Vector> probe_decoding_coefficients(
    const CodingScheme& scheme, const std::vector<bool>& received,
    DecodingCache* cache) {
  return cache ? cache->decode(received)
               : solve_decoding_coefficients(scheme, received);
}

}  // namespace

DecodablePrefix first_decodable_prefix(const CodingScheme& scheme,
                                       std::span<Arrival> arrivals,
                                       DecodingCache* cache) {
  HGC_REQUIRE(!cache || &cache->scheme() == &scheme,
              "decoding cache must wrap the decoded scheme");
  const std::size_t m = scheme.num_workers();
  PrefixWorkspace& ws = prefix_workspace();
  std::vector<bool>& received = ws.received;
  received.assign(m, false);
  ws.time_of.resize(m);
  for (const auto& [time, w] : arrivals) {
    HGC_REQUIRE(w < m && !received[w],
                "arrival from an unknown or repeated worker");
    received[w] = true;
    ws.time_of[w] = time;
  }

  // The first arrival at which a quorum is met: per quorum, the need-th
  // smallest (time, worker) among its arriving members, by selection. The
  // earliest of those is the first arrival after which a quorum is met.
  std::optional<Arrival> met_at;
  const auto select = [&](std::span<Arrival> members, std::size_t need) {
    if (members.size() < need) return;
    const auto nth = members.begin() + static_cast<std::ptrdiff_t>(need - 1);
    std::nth_element(members.begin(), nth, members.end());
    if (!met_at || *nth < *met_at) met_at = *nth;
  };
  for (const DecodeQuorum& quorum : scheme.quorums()) {
    if (quorum.workers.empty()) {
      select(arrivals, quorum.need);
      continue;
    }
    ws.members.clear();
    for (WorkerId w : quorum.workers)
      if (received[w]) ws.members.emplace_back(ws.time_of[w], w);
    select(ws.members, quorum.need);
  }

  DecodablePrefix prefix;
  if (!met_at) {  // no probe can succeed
    prefix.taken = arrivals.size();
    return prefix;
  }

  // No probe happens before a quorum is met, so the arrivals up to it enter
  // the received set at once, in any order; the first probe is there.
  const auto later =
      std::partition(arrivals.begin(), arrivals.end(),
                     [&](const Arrival& a) { return a <= *met_at; });
  received.assign(m, false);
  for (auto it = arrivals.begin(); it != later; ++it) received[it->second] = true;
  prefix.taken = static_cast<std::size_t>(later - arrivals.begin());
  prefix.coefficients = probe_decoding_coefficients(scheme, received, cache);
  if (prefix.coefficients) {
    prefix.decisive = met_at;
    return prefix;
  }

  // Then one probe per later arrival, popped from a min-heap in (time,
  // worker) order, until one decodes.
  const auto heap = arrivals.subspan(prefix.taken);
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  for (auto end = heap.end(); end != heap.begin(); --end) {
    std::pop_heap(heap.begin(), end, std::greater<>{});
    const Arrival next = *(end - 1);
    received[next.second] = true;
    ++prefix.taken;
    prefix.coefficients = probe_decoding_coefficients(scheme, received, cache);
    if (prefix.coefficients) {
      prefix.decisive = next;
      // The popped arrivals sit at the back: move the taken ones forward.
      std::partition(heap.begin(), heap.end(),
                     [&](const Arrival& a) { return a <= next; });
      break;
    }
  }
  return prefix;
}

}  // namespace hgc
