// Work-stealing thread pool for sweep execution.
//
// Each worker thread owns a deque; submit() distributes tasks round-robin
// across the deques, a worker pops from the back of its own deque (LIFO,
// cache-friendly) and steals from the front of a victim's (FIFO, oldest
// first) when its own runs dry. Determinism of sweep results does NOT depend
// on the pool: tasks write to pre-assigned slots, so any interleaving yields
// the same output. The pool only decides wall-clock speed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hgc::exec {

/// Fixed-size pool of worker threads with per-thread work-stealing deques.
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1; callers pass default_threads() for "use
  /// the machine").
  explicit ThreadPool(std::size_t threads);

  /// Drains remaining tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw (wrap fallible work yourself).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  /// hardware_concurrency, floored at 1.
  static std::size_t default_threads();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  bool try_pop_own(std::size_t self, std::function<void()>& task);
  bool try_steal(std::size_t self, std::function<void()>& task);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  mutable std::mutex state_mu_;
  std::condition_variable work_cv_;   ///< wakes idle workers
  std::condition_variable idle_cv_;   ///< wakes wait_idle()
  std::size_t unfinished_ = 0;        ///< submitted but not yet completed
  std::size_t next_queue_ = 0;        ///< round-robin submit cursor
  bool stopping_ = false;
};

}  // namespace hgc::exec
