// In-place Fisher-Yates shuffle drawing from a seeded Rng, for tests that
// need random arrival or worker orders. The library never shuffles.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "util/rng.hpp"

namespace hgc {

template <typename T>
void shuffle(Rng& rng, std::span<T> values) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    using std::swap;
    swap(values[i - 1], values[j]);
  }
}

}  // namespace hgc
