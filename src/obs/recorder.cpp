#include "obs/recorder.hpp"

#include <chrono>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace hgc::obs {

Recorder::Recorder(RecorderOptions opts) : opts_(opts) {}

Recorder::~Recorder() { stop(); }

void Recorder::start() {
  std::unique_lock<std::mutex> lock(mu_);
  if (running_) return;
  if (!(opts_.interval_seconds > 0.0))
    throw std::invalid_argument("obs: recorder interval must be > 0");
  if (!opts_.jsonl)
    throw std::invalid_argument("obs: recorder needs a jsonl sink");
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { run(); });
}

void Recorder::stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::unique_lock<std::mutex> lock(mu_);
  running_ = false;
}

void Recorder::sample_once(std::unique_lock<std::mutex>& lock) {
  // Snapshot outside the recorder lock: Registry::snapshot() takes the
  // registry mutex and per-shard sample locks, and start()/stop() callers
  // must not wait on that.
  lock.unlock();
  const Snapshot snap = Registry::global().snapshot();
  lock.lock();
  snap.write_json(*opts_.jsonl, /*compact=*/true);
  *opts_.jsonl << '\n';
}

void Recorder::run() {
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(opts_.interval_seconds));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    sample_once(lock);
  }
  // Final sample on the way out so even runs shorter than one interval
  // record their end state.
  sample_once(lock);
}

}  // namespace hgc::obs
