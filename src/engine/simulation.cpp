#include "engine/simulation.hpp"

#include <cmath>
#include <utility>

namespace hgc::engine {

EventId Simulation::schedule_at(double time, std::function<void()> action,
                                std::uint64_t tag) {
  HGC_REQUIRE(!std::isnan(time), "event time must not be NaN");
  HGC_REQUIRE(time >= now_, "cannot schedule an event in the past");
  return queue_.push(time, std::move(action), tag);
}

EventId Simulation::schedule_after(double delay, std::function<void()> action,
                                   std::uint64_t tag) {
  HGC_REQUIRE(delay >= 0.0, "event delay must be non-negative");
  return queue_.push(now_ + delay, std::move(action), tag);
}

bool Simulation::step() {
  if (stopped_ || queue_.empty()) return false;
  Event event = queue_.pop();
  now_ = event.time;
  event.action();
  return true;
}

std::size_t Simulation::run() {
  std::size_t count = 0;
  while (step()) ++count;
  return count;
}

std::size_t Simulation::run_until(double until) {
  HGC_REQUIRE(until >= now_, "cannot run the clock backwards");
  std::size_t count = 0;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= until) {
    if (!step()) break;
    ++count;
  }
  if (!stopped_) now_ = until;
  return count;
}

}  // namespace hgc::engine
