// Reference master shared by the decisive-prefix oracles: stable-sort a
// round's arrivals by (time, worker) and probe the scheme's decoder at every
// prefix until one decodes — no quorum gate, no cache.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/coding_scheme.hpp"
#include "engine/round.hpp"

namespace hgc {

inline engine::RoundOutcome reference_round(
    const CodingScheme& scheme,
    std::vector<std::pair<double, WorkerId>> arrivals) {
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.second < b.second;
                   });
  engine::RoundOutcome ref;
  std::vector<bool> received(scheme.num_workers(), false);
  for (const auto& [time, w] : arrivals) {
    received[w] = true;
    ++ref.events_executed;
    ref.coefficients = scheme.decoding_coefficients(received);
    if (ref.coefficients) {
      ref.decoded = true;
      ref.time = time;
      ref.results_used = ref.events_executed;
      break;
    }
  }
  return ref;
}

}  // namespace hgc
