#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

namespace hgc::obs {

namespace detail {

std::atomic<bool> g_metrics_enabled{false};

namespace {

/// RAII lease tying one shard to one thread. The lease is thread_local: the
/// first instrumented event on a thread acquires a shard (recycling one a
/// dead thread released, values intact), and thread exit returns it to the
/// registry's free pool without clearing it — counters are cumulative, so
/// a recycled shard just keeps accumulating.
struct ShardLease {
  Shard* shard = nullptr;
  ~ShardLease() {
    if (shard) Registry::global().release_shard(*shard);
  }
};

thread_local ShardLease t_lease;

}  // namespace

Shard& local_shard() {
  if (!t_lease.shard) t_lease.shard = &Registry::global().acquire_shard();
  return *t_lease.shard;
}

std::atomic<std::uint64_t>& gauge_slot(std::uint32_t index) {
  return Registry::global().gauges_[index];
}

}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- handles --

void Gauge::set(double value) const {
  if (!metrics_enabled()) return;
  detail::gauge_slot(index).store(std::bit_cast<std::uint64_t>(value),
                                  std::memory_order_relaxed);
}

void Histogram::observe_enabled(double x) const {
  // Upper-inclusive buckets: the first bound >= x; past the last bound the
  // sample lands in the overflow slot.
  const double* end = bounds + num_bounds;
  const auto bucket =
      static_cast<std::uint32_t>(std::lower_bound(bounds, end, x) - bounds);
  detail::Shard& shard = detail::local_shard();
  shard.slots[first_slot + bucket].fetch_add(1, std::memory_order_relaxed);
  // The sum slot holds a bit-cast double. CAS-add instead of fetch_add:
  // the shard belongs to this thread, so the loop runs once in practice —
  // only a concurrent snapshot() ever reads it, and never writes.
  std::atomic<std::uint64_t>& sum_slot =
      shard.slots[first_slot + num_bounds + 1];
  std::uint64_t observed = sum_slot.load(std::memory_order_relaxed);
  while (!sum_slot.compare_exchange_weak(
      observed, std::bit_cast<std::uint64_t>(
                    std::bit_cast<double>(observed) + x),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

void StatHandle::observe_enabled(double x) const {
  detail::Shard& shard = detail::local_shard();
  std::lock_guard<std::mutex> lock(shard.sample_mu);
  if (shard.stats.size() <= index) shard.stats.resize(index + 1);
  shard.stats[index].add(x);
}

void QuantileHandle::observe_enabled(double x) const {
  detail::Shard& shard = detail::local_shard();
  std::lock_guard<std::mutex> lock(shard.sample_mu);
  if (shard.quantiles.size() <= index) shard.quantiles.resize(index + 1);
  shard.quantiles[index].add(x);
}

// Snapshot serialization (write_json/read_json/merge) lives in
// obs/snapshot.cpp — this file owns the registry and the hot-path handles.

// --------------------------------------------------------------- registry --

Registry& Registry::global() {
  // Leaked on purpose: thread_local shard leases release into the registry
  // during thread teardown, which can run after static destructors.
  static Registry* instance = new Registry();
  return *instance;
}

detail::Shard& Registry::acquire_shard() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_)
    if (!shard->in_use) {
      shard->in_use = true;
      return *shard;
    }
  shards_.push_back(std::make_unique<detail::Shard>());
  shards_.back()->in_use = true;
  return *shards_.back();
}

void Registry::release_shard(detail::Shard& shard) {
  std::lock_guard<std::mutex> lock(mu_);
  shard.in_use = false;  // values survive for snapshot() and reuse
}

const Registry::Entry& Registry::register_entry(const std::string& name,
                                                Kind kind,
                                                std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = entries_.find(name); it != entries_.end()) {
    if (it->second.kind != kind)
      throw std::invalid_argument("obs: instrument '" + name +
                                  "' re-registered as a different kind");
    if (kind == Kind::kHistogram && *it->second.bounds != bounds)
      throw std::invalid_argument("obs: histogram '" + name +
                                  "' re-registered with different bounds");
    return it->second;
  }

  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter: {
      if (next_slot_ + 1 > detail::kMaxSlots)
        throw std::length_error("obs: counter slot budget exhausted");
      entry.index = next_slot_++;
      break;
    }
    case Kind::kGauge: {
      if (next_gauge_ + 1 > detail::kMaxGauges)
        throw std::length_error("obs: gauge budget exhausted");
      entry.index = next_gauge_++;
      break;
    }
    case Kind::kHistogram: {
      if (bounds.empty() ||
          !std::is_sorted(bounds.begin(), bounds.end()) ||
          std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end())
        throw std::invalid_argument(
            "obs: histogram '" + name +
            "' needs strictly increasing, non-empty bounds");
      const std::uint32_t slots =
          static_cast<std::uint32_t>(bounds.size()) + 2;  // + overflow + sum
      if (next_slot_ + slots > detail::kMaxSlots)
        throw std::length_error("obs: histogram slot budget exhausted");
      entry.index = next_slot_;
      next_slot_ += slots;
      entry.num_bounds = static_cast<std::uint32_t>(bounds.size());
      bounds_storage_.push_back(
          std::make_unique<const std::vector<double>>(std::move(bounds)));
      entry.bounds = bounds_storage_.back().get();
      break;
    }
    case Kind::kStat:
      entry.index = next_stat_++;
      break;
    case Kind::kQuantile:
      entry.index = next_quantile_++;
      break;
  }
  return entries_.emplace(name, entry).first->second;
}

Counter Registry::counter(const std::string& name) {
  return Counter{register_entry(name, Kind::kCounter).index};
}

Gauge Registry::gauge(const std::string& name) {
  return Gauge{register_entry(name, Kind::kGauge).index};
}

Histogram Registry::histogram(const std::string& name,
                              std::vector<double> bounds) {
  const Entry& entry =
      register_entry(name, Kind::kHistogram, std::move(bounds));
  return Histogram{entry.index, entry.num_bounds, entry.bounds->data()};
}

StatHandle Registry::stat(const std::string& name) {
  return StatHandle{register_entry(name, Kind::kStat).index};
}

QuantileHandle Registry::quantile(const std::string& name) {
  return QuantileHandle{register_entry(name, Kind::kQuantile).index};
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.unix_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count();

  // Sum the slot-backed instruments across every shard (live and released —
  // released shards still hold counts from threads that exited).
  const auto slot_sum = [this](std::uint32_t slot) {
    std::uint64_t sum = 0;
    for (const auto& shard : shards_)
      sum += shard->slots[slot].load(std::memory_order_relaxed);
    return sum;
  };

  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        snap.counters[name] = slot_sum(entry.index);
        break;
      case Kind::kGauge:
        snap.gauges[name] = GaugeSnapshot{
            std::bit_cast<double>(
                gauges_[entry.index].load(std::memory_order_relaxed)),
            snap.unix_ns};
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.bounds = *entry.bounds;
        h.counts.resize(entry.num_bounds + 1);
        for (std::uint32_t b = 0; b <= entry.num_bounds; ++b)
          h.counts[b] = slot_sum(entry.index + b);
        for (const auto& shard : shards_)
          h.sum += std::bit_cast<double>(
              shard->slots[entry.index + entry.num_bounds + 1].load(
                  std::memory_order_relaxed));
        snap.histograms[name] = std::move(h);
        break;
      }
      case Kind::kStat: {
        RunningStats merged;
        for (const auto& shard : shards_) {
          std::lock_guard<std::mutex> slock(shard->sample_mu);
          if (entry.index < shard->stats.size())
            merged.merge(shard->stats[entry.index]);
        }
        snap.stats[name] = merged;
        break;
      }
      case Kind::kQuantile: {
        ReservoirQuantiles merged;
        for (const auto& shard : shards_) {
          std::lock_guard<std::mutex> slock(shard->sample_mu);
          if (entry.index < shard->quantiles.size())
            merged.merge(shard->quantiles[entry.index]);
        }
        snap.quantiles[name] = std::move(merged);
        break;
      }
    }
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    for (auto& slot : shard->slots)
      slot.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> slock(shard->sample_mu);
    shard->stats.clear();
    shard->quantiles.clear();
  }
  for (auto& gauge : gauges_) gauge.store(0, std::memory_order_relaxed);
}

}  // namespace hgc::obs
