// Background metrics sampler — the time axis of the observability layer.
//
// Registry::snapshot() is a point-in-time view; the Recorder turns it into
// a series by sampling on its own thread at a fixed interval and appending
// each sample to a JSONL stream (one compact Snapshot per line) for offline
// rate analysis with hgc_obs.
//
// Isolation contract: the recorder only ever *reads* the registry — it
// takes snapshots on its own thread and touches nothing the cells write.
// A run with the recorder on produces byte-identical ResultTable output to
// a run without it, at any thread count (CI diffs this).
#pragma once

#include <condition_variable>
#include <iosfwd>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"

namespace hgc::obs {

struct RecorderOptions {
  /// Seconds between samples. Must be > 0 to start().
  double interval_seconds = 1.0;
  /// The sink: one compact Snapshot JSON per line, appended at each
  /// sample. Not owned; must be set to start() and outlive stop().
  std::ostream* jsonl = nullptr;
};

class Recorder {
 public:
  explicit Recorder(RecorderOptions opts);
  ~Recorder();  ///< stops (taking the final sample) if still running

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Launch the sampler thread. No-op when already running.
  void start();

  /// Take one final sample (so short runs always record something), then
  /// join the thread. No-op when not running.
  void stop();

 private:
  void sample_once(std::unique_lock<std::mutex>& lock);
  void run();

  RecorderOptions opts_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace hgc::obs
