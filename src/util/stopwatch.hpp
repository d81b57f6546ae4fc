// Wall-clock stopwatch for the threaded runtime and benches.
#pragma once

#include <chrono>

namespace hgc {

/// Monotonic stopwatch; starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  // lint:allow(nondeterministic-seed): measurement utility; results are reported, never fed back into simulation state
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hgc
