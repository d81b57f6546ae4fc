// Discrete-event simulation core: a virtual clock driving an event queue.
//
// Every trainer and scenario driver in the repository advances time through
// one of these rather than a bespoke loop: handlers run at their scheduled
// virtual time, may schedule further events (including zero-delay ones), and
// may stop the run early (e.g. the master decoding before all results
// arrive). Time never flows backwards, so within one Simulation all observed
// `now()` values are monotone.
#pragma once

#include <functional>

#include "engine/event_queue.hpp"

namespace hgc::engine {

/// Virtual-clock event loop.
class Simulation {
 public:
  /// Current virtual time (seconds). 0 before any event has run.
  double now() const { return now_; }

  /// Schedule `action` at absolute virtual time `time` (>= now()). `tag`
  /// breaks ties among equal times (lower first; equal tags fire FIFO) —
  /// pass a worker id to pin simultaneous events to worker order.
  EventId schedule_at(double time, std::function<void()> action,
                      std::uint64_t tag = 0);

  /// Schedule `action` `delay` seconds from now (delay >= 0).
  EventId schedule_after(double delay, std::function<void()> action,
                         std::uint64_t tag = 0);

  /// Pre-size the queue for `n` simultaneously pending events.
  void reserve(std::size_t n) { queue_.reserve(n); }

  /// Run the next event. Returns false when the queue is empty or the
  /// simulation was stopped.
  bool step();

  /// Run until the queue drains or stop() is called; returns the number of
  /// events executed by this call.
  std::size_t run();

  /// Run events with time <= `until`, then advance the clock to `until`
  /// (unless stopped earlier). Returns the number of events executed.
  std::size_t run_until(double until);

  /// Halt the loop; pending events stay queued. resume() re-arms it.
  void stop() { stopped_ = true; }
  void resume() { stopped_ = false; }

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }

 private:
  EventQueue queue_;
  double now_ = 0.0;
  bool stopped_ = false;
};

}  // namespace hgc::engine
