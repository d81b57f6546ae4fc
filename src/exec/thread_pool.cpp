#include "exec/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace hgc::exec {

ThreadPool::ThreadPool(std::size_t threads) {
  HGC_REQUIRE(threads > 0, "thread pool needs at least one worker");
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    // The push must happen under state_mu_ (the cv mutex): a worker whose
    // wait predicate just scanned this queue as empty is only guaranteed to
    // see the task — or the notify — if the modification is ordered by the
    // mutex it evaluates the predicate under. Lock order state_mu_ → queue
    // mutex matches the predicate's.
    std::lock_guard<std::mutex> lock(state_mu_);
    ++unfinished_;
    WorkerQueue& q = *queues_[next_queue_];
    next_queue_ = (next_queue_ + 1) % queues_.size();
    std::lock_guard<std::mutex> qlock(q.mu);
    q.tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(state_mu_);
  idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
}

std::size_t ThreadPool::default_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

bool ThreadPool::try_pop_own(std::size_t self, std::function<void()>& task) {
  WorkerQueue& q = *queues_[self];
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.tasks.empty()) return false;
  task = std::move(q.tasks.back());
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::try_steal(std::size_t self, std::function<void()>& task) {
  const std::size_t n = queues_.size();
  for (std::size_t offset = 1; offset < n; ++offset) {
    WorkerQueue& victim = *queues_[(self + offset) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.tasks.empty()) continue;
    task = std::move(victim.tasks.front());
    victim.tasks.pop_front();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (!try_pop_own(self, task)) {
      if (!try_steal(self, task)) {
        std::unique_lock<std::mutex> lock(state_mu_);
        // Re-check under the lock: a submit may have raced the failed scans.
        work_cv_.wait(lock, [this, self] {
          if (stopping_) return true;
          for (const auto& q : queues_) {
            std::lock_guard<std::mutex> qlock(q->mu);
            if (!q->tasks.empty()) return true;
          }
          return false;
        });
        if (stopping_) return;
        continue;  // scan again outside the state lock
      }
    }
    {
      HGC_TRACE_SCOPE("task", "exec", static_cast<std::int64_t>(self));
      task();
    }
    if (obs::metrics_enabled()) {
      static const obs::Counter tasks =
          obs::Registry::global().counter("exec.tasks");
      tasks.add();
    }
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (--unfinished_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace hgc::exec
