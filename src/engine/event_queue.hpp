// Event queue for the discrete-event engine.
//
// Events are ordered by (time, tag, insertion sequence). The tag is a
// caller-supplied tie-break key — protocols that historically ordered
// simultaneous events by worker id (the SSP trainer's finish queue, the
// round's arrival ordering) pass the worker id as the tag and get exactly
// that order back. Untagged events fire FIFO among equal times. The total
// order makes every simulation deterministic — the property the experiment
// fairness contract and all trainer determinism tests lean on.
//
// The heap holds 32-byte POD keys and sifts them by moving a hole (one copy
// per level); the actions live in a slab of std::function slots recycled
// through a free list, so a long-lived loop keeps the slab at its peak
// pending count. Once reserve()d, push and pop allocate nothing for actions
// that fit std::function's inline buffer (16 bytes in libstdc++: a
// reference plus an id).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace hgc::engine {

/// Insertion sequence number of an event: the final FIFO tie-break.
using EventId = std::uint64_t;

/// One scheduled callback, as returned by EventQueue::pop.
struct Event {
  double time = 0.0;
  std::uint64_t tag = 0;  ///< caller tie-break; lower tags fire first
  EventId id = 0;         ///< insertion sequence; final FIFO tie-break
  std::function<void()> action;
};

/// Min-heap of event keys ordered by (time, tag, id) over a slab of actions.
class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Action slots, live or free: the peak pending count so far.
  std::size_t slab_size() const { return slab_.size(); }

  /// Pre-size for `n` simultaneously pending events.
  void reserve(std::size_t n) {
    heap_.reserve(n);
    slab_.reserve(n);
    free_.reserve(n);
  }

  /// Schedule `action` at absolute `time`; `tag` breaks ties among equal
  /// times (see the file comment).
  EventId push(double time, std::function<void()> action,
               std::uint64_t tag = 0) {
    std::size_t slot = slab_.size();
    if (free_.empty()) {
      slab_.push_back(std::move(action));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(action);
    }
    const Key key{time, tag, next_id_++, slot};
    heap_.push_back(key);
    sift_up(heap_.size() - 1, key);
    return key.id;
  }

  /// Remove and return the earliest event. Requires !empty().
  Event pop() {
    HGC_ASSERT(!heap_.empty(), "pop on an empty event queue");
    const Key top = heap_.front();
    Event out{top.time, top.tag, top.id, std::move(slab_[top.slot])};
    free_.push_back(top.slot);
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return out;
  }

  /// Earliest event's time. Requires !empty().
  double next_time() const {
    HGC_ASSERT(!heap_.empty(), "next_time on an empty event queue");
    return heap_.front().time;
  }

 private:
  struct Key {
    double time;
    std::uint64_t tag;
    EventId id;
    std::size_t slot;  ///< index of the action in slab_
  };
  static_assert(sizeof(Key) == 32);

  static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.tag != b.tag) return a.tag < b.tag;
    return a.id < b.id;
  }

  /// Place `key` at the hole `i`, moving larger ancestors down.
  void sift_up(std::size_t i, const Key& key) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(key, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  /// Place `key` at the hole `i`, moving smaller descendants up.
  void sift_down(std::size_t i, const Key& key) {
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], key)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = key;
  }

  std::vector<Key> heap_;
  std::vector<std::function<void()>> slab_;
  std::vector<std::size_t> free_;  // slab slots whose action has been popped
  EventId next_id_ = 0;
};

}  // namespace hgc::engine
