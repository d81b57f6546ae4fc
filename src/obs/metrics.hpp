// Process-wide metrics registry — the counting half of the observability
// layer (the tracing half lives in obs/trace.hpp).
//
// Design constraints, in priority order:
//   1. Near-zero disabled cost. Every hot-path site compiles to one relaxed
//      atomic load and a predictable branch when metrics are off
//      (`metrics_enabled()` below); the sweep's decode hot path must not pay
//      for instrumentation it is not using (BM_ObsOverhead* pins this).
//   2. Lock-free enabled hot path. Increments land in per-thread shards of
//      relaxed atomics — no mutex, no contention, no ordering that a solve
//      loop would stall on. Aggregation happens only in snapshot().
//   3. Zero behavior change. Nothing here ever feeds back into results:
//      counters are out-of-band by construction, exactly like the cache
//      hit/miss stats they replace.
//
// Handle model: a site registers once (function-local static) and keeps a
// trivially-copyable handle whose increment indexes a fixed slot:
//
//   if (obs::metrics_enabled()) {
//     static const obs::Counter hits =
//         obs::Registry::global().counter("decode_cache.hits");
//     hits.add();
//   }
//
// The registry is a leaked global singleton: thread_local shard leases may
// be destroyed after main() returns, so the registry must outlive every
// static-destruction order the standard allows. Shards released by exiting
// threads keep their values (counters are cumulative) and are recycled for
// new threads, so a pool that is torn down and rebuilt never loses counts
// and never grows the shard list unboundedly.
//
// Five instrument kinds:
//   * Counter    — monotonically increasing uint64 (hits, misses, rounds).
//   * Gauge      — last-write-wins double (cells.total; registry-global,
//                  not sharded — gauges are set from one site, rarely).
//   * Histogram  — fixed upper-inclusive bucket bounds + overflow bucket
//                  (solve latencies; bucket = first bound >= x).
//   * Stat       — RunningStats (mean/min/max/stddev) per shard, merged on
//                  snapshot via RunningStats::merge.
//   * Quantile   — ReservoirQuantiles per shard, merged on snapshot via
//                  its deterministic merge.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace hgc::obs {

namespace detail {

/// Global enable gate; read relaxed on every instrumented site.
extern std::atomic<bool> g_metrics_enabled;

/// Shard slot budget. 1024 counters/histogram-buckets is ~20x the current
/// instrumentation; registration throws past it rather than corrupting.
inline constexpr std::size_t kMaxSlots = 1024;
inline constexpr std::size_t kMaxGauges = 64;

/// One thread's slice of every counter and histogram bucket. Slots are
/// relaxed atomics so snapshot() can read them while the owner increments;
/// the sample instruments (stats/quantiles) are mutex-guarded per shard —
/// uncontended in steady state, only snapshot() ever takes them from
/// another thread.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxSlots> slots{};
  std::mutex sample_mu;
  std::vector<RunningStats> stats;               // indexed by stat id
  std::vector<ReservoirQuantiles> quantiles;     // indexed by quantile id
  bool in_use = false;                           // guarded by registry mutex
};

/// The calling thread's shard, acquiring (or recycling) one on first use.
Shard& local_shard();

/// Registry-global gauge storage (bit-cast doubles).
std::atomic<std::uint64_t>& gauge_slot(std::uint32_t index);

}  // namespace detail

/// True when metrics collection is on. Relaxed: a site that races an
/// enable/disable transition may record or skip one event, which is fine —
/// metrics are diagnostics, and the contract is only that the *disabled*
/// steady state costs one load + branch.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on);

/// Monotonic counter handle. Trivially copyable; cache in a function-local
/// static and call add() on the hot path.
struct Counter {
  std::uint32_t slot = 0;
  void add(std::uint64_t n = 1) const {
    if (!metrics_enabled()) return;
    detail::local_shard().slots[slot].fetch_add(n,
                                                std::memory_order_relaxed);
  }
};

/// Last-write-wins double gauge (registry-global, not per-thread).
struct Gauge {
  std::uint32_t index = 0;
  void set(double value) const;
};

/// Fixed-bucket histogram handle. Bucket b counts samples with
/// x <= bounds[b] (upper-inclusive); the final slot is the overflow bucket
/// for x > bounds.back(). One extra slot accumulates the sum of observed
/// values (bit-cast double, CAS-added — uncontended on the per-thread
/// shard): the snapshot's JSON `sum`, which merge adds across shards.
struct Histogram {
  std::uint32_t first_slot = 0;
  std::uint32_t num_bounds = 0;
  const double* bounds = nullptr;  ///< owned by the (leaked) registry
  void observe(double x) const {
    if (!metrics_enabled()) return;
    observe_enabled(x);
  }
  void observe_enabled(double x) const;
};

/// RunningStats handle (mean/variance/min/max across all threads).
struct StatHandle {
  std::uint32_t index = 0;
  void observe(double x) const {
    if (!metrics_enabled()) return;
    observe_enabled(x);
  }
  void observe_enabled(double x) const;
};

/// ReservoirQuantiles handle (p50/p95/p99 across all threads).
struct QuantileHandle {
  std::uint32_t index = 0;
  void observe(double x) const {
    if (!metrics_enabled()) return;
    observe_enabled(x);
  }
  void observe_enabled(double x) const;
};

/// A merged, point-in-time view of every registered instrument.
struct HistogramSnapshot {
  std::vector<double> bounds;        ///< upper-inclusive bucket bounds
  std::vector<std::uint64_t> counts; ///< bounds.size() + 1 (overflow last)
  double sum = 0.0;                  ///< sum of observed values
  std::uint64_t total() const;

  friend bool operator==(const HistogramSnapshot& a,
                         const HistogramSnapshot& b) {
    return a.bounds == b.bounds && a.counts == b.counts && a.sum == b.sum;
  }
};

/// A gauge value plus the wall time of the snapshot it came from — merge
/// resolves conflicting gauges last-write-wins by this timestamp, so the
/// freshest shard's reading survives a fleet fold regardless of merge
/// order (ties break toward the larger value, keeping merge commutative).
struct GaugeSnapshot {
  double value = 0.0;
  std::int64_t ts_unix_ns = 0;

  friend bool operator==(const GaugeSnapshot& a, const GaugeSnapshot& b) {
    return a.value == b.value && a.ts_unix_ns == b.ts_unix_ns;
  }
};

struct Snapshot {
  /// Wall time (unix epoch, ns) when Registry::snapshot() ran; 0 on a
  /// default-constructed snapshot. hgc_obs diff turns two timestamps into
  /// per-second rates; merge keeps the max.
  std::int64_t unix_ns = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, RunningStats> stats;
  std::map<std::string, ReservoirQuantiles> quantiles;

  /// Named counter value; 0 when never registered (snapshots are sparse in
  /// nothing — every registered name appears — so 0 also means "no site
  /// registered it yet").
  std::uint64_t counter(const std::string& name) const;

  /// Named gauge value; 0.0 when never registered.
  double gauge(const std::string& name) const;

  /// Stable JSON: one object per instrument kind, keys sorted (std::map),
  /// doubles in shortest-round-trip form (to_chars), 64-bit integers as
  /// exact integer tokens. `compact` collapses all whitespace to one line
  /// (the recorder's JSONL format). read_json(write_json(s)) == s to the
  /// bit either way.
  void write_json(std::ostream& os, bool compact = false) const;

  /// Parse a snapshot written by write_json. Strict: anything else throws
  /// std::runtime_error naming the section and instrument, e.g.
  /// `snapshot: gauges."mem.rss": expected an object`.
  static Snapshot read_json(const std::string& text);

  /// Fold another snapshot into this one — the fleet-merge primitive.
  /// Exact and associative: counters and histogram buckets sum, histogram
  /// sums add, gauges resolve last-write-wins by timestamp, stats and
  /// quantiles merge via RunningStats::merge / ReservoirQuantiles::merge
  /// (counts exact; floating-point moments agree across merge orders to
  /// rounding). Throws std::invalid_argument when the same histogram name
  /// arrives with different bucket bounds.
  void merge(const Snapshot& other);

  friend bool operator==(const Snapshot& a, const Snapshot& b) {
    return a.unix_ns == b.unix_ns && a.counters == b.counters &&
           a.gauges == b.gauges && a.histograms == b.histograms &&
           a.stats == b.stats && a.quantiles == b.quantiles;
  }
};

/// The process-wide registry. Registration is mutex-guarded and expected at
/// site-initialization frequency (function-local statics); the returned
/// handles are valid forever — reset() clears values, never registrations,
/// so cached handles in statics survive.
class Registry {
 public:
  static Registry& global();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Idempotent by name: re-registering returns the same handle. Throws
  /// std::invalid_argument when a name is reused across instrument kinds
  /// (or a histogram is re-registered with different bounds) and
  /// std::length_error when the slot budget is exhausted.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name, std::vector<double> bounds);
  StatHandle stat(const std::string& name);
  QuantileHandle quantile(const std::string& name);

  /// Merge every shard (live and recycled) into one view.
  Snapshot snapshot() const;

  /// Zero all values; registrations and outstanding handles stay valid.
  void reset();

  /// Internal — the thread_local shard lease in metrics.cpp checks a shard
  /// out per thread and returns it (values intact) on thread exit.
  detail::Shard& acquire_shard();
  void release_shard(detail::Shard& shard);

 private:
  friend std::atomic<std::uint64_t>& detail::gauge_slot(std::uint32_t);

  Registry() = default;

  enum class Kind { kCounter, kGauge, kHistogram, kStat, kQuantile };
  struct Entry {
    Kind kind;
    std::uint32_t index = 0;       ///< slot / gauge / stat / quantile id
    std::uint32_t num_bounds = 0;  ///< histograms only
    const std::vector<double>* bounds = nullptr;  ///< histograms only
  };

  const Entry& register_entry(const std::string& name, Kind kind,
                              std::vector<double> bounds = {});

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::uint32_t next_slot_ = 0;
  std::uint32_t next_gauge_ = 0;
  std::uint32_t next_stat_ = 0;
  std::uint32_t next_quantile_ = 0;
  /// Histogram bounds live here so handles can point at stable storage
  /// (the registry is leaked, so "stable" means process-lifetime).
  std::vector<std::unique_ptr<const std::vector<double>>> bounds_storage_;
  std::vector<std::unique_ptr<detail::Shard>> shards_;
  std::array<std::atomic<std::uint64_t>, detail::kMaxGauges> gauges_{};
};

}  // namespace hgc::obs
