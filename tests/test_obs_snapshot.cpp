// Tests for the snapshot layer on top of the metrics registry: the exact
// JSON round-trip and its strict reader, the associative fleet merge, and
// the background Recorder.
//
// Exactness boundaries under test:
//   * integer state (counters, histogram bucket counts, sample counts,
//     gauge timestamps, reservoir rng state) round-trips and merges to the
//     bit, including values past 2^53 that a double cannot hold;
//   * doubles round-trip through JSON to the bit (to_chars shortest form);
//   * merge is exactly commutative and associative on all integer state;
//     floating-point moments (histogram sums, Welford mean/m2) agree
//     across merge orders only to rounding, and the tests assert exactly
//     that — near, not bitwise.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace hgc {
namespace {

using obs::GaugeSnapshot;
using obs::HistogramSnapshot;
using obs::Snapshot;

std::string to_json(const Snapshot& snap, bool compact = false) {
  std::ostringstream os;
  snap.write_json(os, compact);
  return os.str();
}

// --- JSON round-trip ----------------------------------------------------

Snapshot wide_snapshot() {
  Snapshot s;
  s.unix_ns = 1'700'000'001'234'567'891;
  s.counters["c.past_double"] = (std::uint64_t{1} << 53) + 1;  // not a double
  s.counters["c.max"] = std::numeric_limits<std::uint64_t>::max();
  s.counters["c.zero"] = 0;
  s.gauges["g.pi"] = GaugeSnapshot{3.141592653589793, 1'700'000'000'000'000'123};
  s.gauges["g.tiny"] = GaugeSnapshot{-2.2250738585072014e-308, 0};
  HistogramSnapshot h;
  h.bounds = {0.001, 0.1, 2.5};
  h.counts = {1, 0, 7, 2};
  h.sum = 19.25 + 1e-9;
  s.histograms["h.lat"] = h;
  RunningStats st;
  st.add(0.1);
  st.add(0.7);
  st.add(1.0 / 3.0);
  s.stats["s.time"] = st;
  ReservoirQuantiles q(4, 99);
  for (int i = 0; i < 12; ++i) q.add(0.25 * i);  // saturates: state advances
  s.quantiles["q.lat"] = q;
  return s;
}

TEST(ObsSnapshotJson, RoundTripsToTheBitIncludingWideIntegers) {
  const Snapshot s = wide_snapshot();
  EXPECT_EQ(Snapshot::read_json(to_json(s)), s);
  EXPECT_EQ(Snapshot::read_json(to_json(s, /*compact=*/true)), s);
  // Compact really is one line (the recorder's JSONL contract).
  EXPECT_EQ(to_json(s, true).find('\n'), std::string::npos);
}

TEST(ObsSnapshotJson, EmptySnapshotRoundTrips) {
  const Snapshot empty;
  EXPECT_EQ(Snapshot::read_json(to_json(empty)), empty);
}

TEST(ObsSnapshotJson, RegistrySnapshotRoundTrips) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  obs::Registry::global().counter("t.rt.c").add(41);
  obs::Registry::global().gauge("t.rt.g").set(0.1 + 0.2);  // not exactly 0.3
  const obs::Histogram h =
      obs::Registry::global().histogram("t.rt.h", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  obs::Registry::global().stat("t.rt.s").observe(1.0 / 7.0);
  obs::Registry::global().quantile("t.rt.q").observe(2.5);
  obs::set_metrics_enabled(false);

  const Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_GT(snap.unix_ns, 0);
  EXPECT_EQ(snap.gauges.at("t.rt.g").ts_unix_ns, snap.unix_ns);
  EXPECT_DOUBLE_EQ(snap.histograms.at("t.rt.h").sum, 0.5 + 1.5 + 9.0);
  EXPECT_EQ(Snapshot::read_json(to_json(snap)), snap);
  obs::Registry::global().reset();
}

/// The error read_json throws for an empty snapshot with one `entry`
/// spliced into `section`; empty when it parses.
std::string read_error(const std::string& section, const std::string& entry) {
  std::string text = to_json(Snapshot{});
  const std::string key = '"' + section + "\": {";
  text.insert(text.find(key) + key.size(), entry);
  try {
    Snapshot::read_json(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ObsSnapshotJson, StrictReaderNamesSectionAndInstrument) {
  // The four shapes an early writer emitted are not what write_json
  // writes, so each throws, and the message says where.
  EXPECT_EQ(read_error("gauges", R"("mem.rss": 2.5)"),
            R"(snapshot: gauges."mem.rss": expected an object)");
  EXPECT_EQ(read_error("histograms", R"("solve.lat": {"bounds": [1, 2],
                       "counts": [3, 0, 1], "total": 4})"),
            R"(snapshot: histograms."solve.lat": missing key "sum")");
  EXPECT_EQ(read_error("stats", R"("cell.s": {"count": 3, "mean": 2,
                       "stddev": 1, "min": 1, "max": 3})"),
            R"(snapshot: stats."cell.s": missing key "m2")");
  EXPECT_EQ(read_error("quantiles", R"("round.lat": {"count": 9, "p50": 1.5,
                       "p95": 2.9, "p99": 3})"),
            R"(snapshot: quantiles."round.lat": missing key "sample")");
}

TEST(ObsSnapshotJson, MalformedInputThrows) {
  EXPECT_THROW(Snapshot::read_json("not json"), std::runtime_error);
  EXPECT_THROW(Snapshot::read_json("[1, 2]"), std::runtime_error);
  EXPECT_EQ(read_error("histograms", R"("h": {"bounds": [1], "counts": [1],
                       "sum": 0})"),
            R"(snapshot: histograms."h": counts/bounds size mismatch)");
  EXPECT_EQ(read_error("histograms", R"("h": {"bounds": 1, "counts": [1],
                       "sum": 0})"),
            R"(snapshot: histograms."h": "bounds" must be an array)");
  EXPECT_EQ(read_error("counters", R"("c": -1)"),
            R"(snapshot: counters."c": json: not an exact uint64: -1)");
  EXPECT_EQ(read_error("counters", R"("c": "7")"),
            R"(snapshot: counters."c": json: expected a number)");
  try {
    Snapshot::read_json(R"({"snapshot_unix_ns": 0})");
    ADD_FAILURE() << "accepted a snapshot with no sections";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), R"(snapshot: "counters" must be an object)");
  }
}

// --- Merge --------------------------------------------------------------

/// A deterministic pseudo-random snapshot; overlapping names across seeds
/// exercise the fold paths, disjoint ones the insert paths.
Snapshot fuzz_snapshot(std::uint64_t seed) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  Snapshot s;
  s.unix_ns = static_cast<std::int64_t>(next() % 1'000'000'000);
  s.counters["shared.a"] = next();
  s.counters["shared.b"] = next() % 1000;
  s.counters["only." + std::to_string(seed % 3)] = next();
  s.gauges["shared.g"] = GaugeSnapshot{
      static_cast<double>(next() % 997) / 31.0,
      static_cast<std::int64_t>(next() % 100)};
  HistogramSnapshot h;
  h.bounds = {1.0, 10.0, 100.0};
  h.counts = {next() % 50, next() % 50, next() % 50, next() % 50};
  h.sum = static_cast<double>(next() % 10'000) / 7.0;
  s.histograms["shared.h"] = h;
  RunningStats st;
  const std::size_t n = 1 + next() % 6;
  for (std::size_t i = 0; i < n; ++i)
    st.add(static_cast<double>(next() % 1000) / 13.0);
  s.stats["shared.s"] = st;
  ReservoirQuantiles q(8, seed + 1);
  const std::size_t m = next() % 20;
  for (std::size_t i = 0; i < m; ++i)
    q.add(static_cast<double>(next() % 1000) / 17.0);
  s.quantiles["shared.q"] = q;
  return s;
}

Snapshot merged(const Snapshot& a, const Snapshot& b) {
  Snapshot out = a;
  out.merge(b);
  return out;
}

/// Exact on all integer state, near on floating-point moments.
void expect_equivalent(const Snapshot& a, const Snapshot& b,
                       const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.unix_ns, b.unix_ns);
  EXPECT_EQ(a.counters, b.counters);  // exact, bitwise
  EXPECT_EQ(a.gauges, b.gauges);      // LWW over a total order: exact
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (const auto& [name, ha] : a.histograms) {
    const HistogramSnapshot& hb = b.histograms.at(name);
    EXPECT_EQ(ha.bounds, hb.bounds);
    EXPECT_EQ(ha.counts, hb.counts);  // exact, bitwise
    EXPECT_NEAR(ha.sum, hb.sum, 1e-9 * (1.0 + std::abs(ha.sum)));
  }
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (const auto& [name, sa] : a.stats) {
    const RunningStats& sb = b.stats.at(name);
    EXPECT_EQ(sa.count(), sb.count());  // exact
    EXPECT_NEAR(sa.mean(), sb.mean(), 1e-9 * (1.0 + std::abs(sa.mean())));
    EXPECT_NEAR(sa.m2(), sb.m2(), 1e-6 * (1.0 + std::abs(sa.m2())));
    EXPECT_EQ(sa.min(), sb.min());  // min/max of the same set: exact
    EXPECT_EQ(sa.max(), sb.max());
  }
  ASSERT_EQ(a.quantiles.size(), b.quantiles.size());
  for (const auto& [name, qa] : a.quantiles)
    EXPECT_EQ(qa.count(), b.quantiles.at(name).count());  // exact
}

TEST(ObsSnapshotMerge, SumsCountersAndHistogramsExactly) {
  Snapshot a = fuzz_snapshot(1);
  const Snapshot b = fuzz_snapshot(2);
  const std::uint64_t ca = a.counter("shared.a"), cb = b.counter("shared.a");
  const std::uint64_t h0a = a.histograms.at("shared.h").counts[0];
  const std::uint64_t h0b = b.histograms.at("shared.h").counts[0];
  a.merge(b);
  EXPECT_EQ(a.counter("shared.a"), ca + cb);  // wrapping-exact uint64 sum
  EXPECT_EQ(a.histograms.at("shared.h").counts[0], h0a + h0b);
  EXPECT_EQ(a.counter("only.1"), fuzz_snapshot(1).counter("only.1"));
  EXPECT_EQ(a.counter("only.2"), fuzz_snapshot(2).counter("only.2"));
}

TEST(ObsSnapshotMerge, IsCommutativeAndAssociative) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Snapshot a = fuzz_snapshot(3 * seed + 1);
    const Snapshot b = fuzz_snapshot(3 * seed + 2);
    const Snapshot c = fuzz_snapshot(3 * seed + 3);
    expect_equivalent(merged(a, b), merged(b, a),
                      "commutativity seed " + std::to_string(seed));
    expect_equivalent(merged(merged(a, b), c), merged(a, merged(b, c)),
                      "associativity seed " + std::to_string(seed));
  }
}

TEST(ObsSnapshotMerge, GaugesResolveLastWriteWinsByTimestamp) {
  Snapshot older, newer;
  older.gauges["g"] = GaugeSnapshot{1.0, 100};
  newer.gauges["g"] = GaugeSnapshot{2.0, 200};
  Snapshot ab = merged(older, newer);
  Snapshot ba = merged(newer, older);
  EXPECT_DOUBLE_EQ(ab.gauge("g"), 2.0);
  EXPECT_DOUBLE_EQ(ba.gauge("g"), 2.0);
  EXPECT_EQ(ab.gauges.at("g").ts_unix_ns, 200);
}

TEST(ObsSnapshotMerge, ThrowsOnHistogramBoundsMismatch) {
  Snapshot a, b;
  a.histograms["h"] = HistogramSnapshot{{1.0, 2.0}, {0, 0, 0}, 0.0};
  b.histograms["h"] = HistogramSnapshot{{1.0, 3.0}, {0, 0, 0}, 0.0};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(ObsSnapshotMerge, MergedShardsMatchOneUnsplitRun) {
  // The fleet-merge contract hgc_obs relies on, in-process: a sweep split
  // by cluster, its per-shard registry snapshots merged, must report the
  // same counter totals as the unsplit run. (No shared caches — a cache
  // crossing the split boundary would legitimately change hit/miss.)
  exec::SweepGrid grid;
  grid.clusters = {cluster_a(), cluster_b()};
  grid.schemes = {SchemeKind::kCyclic, SchemeKind::kHeterAware};
  grid.s_values = {1};
  grid.seeds = {7};
  grid.iterations = 8;

  const auto run_for_snapshot = [](const exec::SweepGrid& g) {
    obs::Registry::global().reset();
    obs::set_metrics_enabled(true);
    Snapshot snap;
    exec::SweepOptions opts;
    opts.threads = 2;
    opts.metrics_snapshot = &snap;
    exec::run_sweep(g, opts);
    obs::set_metrics_enabled(false);
    return snap;
  };

  const Snapshot full = run_for_snapshot(grid);

  exec::SweepGrid shard_a = grid;
  shard_a.clusters = {cluster_a()};
  exec::SweepGrid shard_b = grid;
  shard_b.clusters = {cluster_b()};
  Snapshot combined = run_for_snapshot(shard_a);
  combined.merge(run_for_snapshot(shard_b));

  // Every counter the run touched, not a cherry-picked subset.
  EXPECT_EQ(combined.counters, full.counters);
  EXPECT_GT(full.counter("engine.rounds"), 0u);
  EXPECT_GT(full.counter("decode.solves"), 0u);
  EXPECT_EQ(full.counter("sweep.cells.done"), grid.num_cells());
  // Sample counts fold exactly too; the moments only to rounding.
  EXPECT_EQ(combined.stats.at("sweep.cell_seconds").count(),
            full.stats.at("sweep.cell_seconds").count());
  obs::Registry::global().reset();
}

// --- Recorder -----------------------------------------------------------

/// Every sample a recorder appended to its JSONL sink, oldest first.
std::vector<Snapshot> read_jsonl(const std::string& jsonl) {
  std::vector<Snapshot> samples;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line))
    if (!line.empty()) samples.push_back(Snapshot::read_json(line));
  return samples;
}

TEST(ObsRecorder, SamplesTheRegistryAndAppendsJsonl) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  const obs::Counter c = obs::Registry::global().counter("t.rec.ticks");

  std::ostringstream jsonl;
  obs::RecorderOptions opts;
  opts.interval_seconds = 0.005;
  opts.jsonl = &jsonl;
  obs::Recorder recorder(opts);
  recorder.start();
  for (int i = 0; i < 8; ++i) {
    c.add();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  recorder.stop();
  obs::set_metrics_enabled(false);

  const std::vector<Snapshot> samples = read_jsonl(jsonl.str());
  ASSERT_FALSE(samples.empty());  // stop() always takes a final sample
  EXPECT_EQ(samples.back().counter("t.rec.ticks"), 8u);
  std::uint64_t prev = 0;
  for (const Snapshot& s : samples) {
    EXPECT_GE(s.counter("t.rec.ticks"), prev);  // counters are cumulative
    prev = s.counter("t.rec.ticks");
    EXPECT_GT(s.unix_ns, 0);
  }
  obs::Registry::global().reset();
}

TEST(ObsRecorder, JsonlSamplesAreInTimeOrder) {
  std::ostringstream jsonl;
  obs::RecorderOptions opts;
  opts.interval_seconds = 0.001;
  opts.jsonl = &jsonl;
  obs::Recorder recorder(opts);
  // A loaded machine may not schedule a 1 ms tick within the sleep, so
  // run start/stop cycles (each stop writes a final sample) until the sink
  // holds two samples. The sink is only read while the recorder is stopped.
  const Stopwatch waited;
  std::vector<Snapshot> samples;
  while (samples.size() < 2 && waited.seconds() < 10.0) {
    recorder.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    recorder.stop();
    samples = read_jsonl(jsonl.str());
  }
  EXPECT_GE(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_GE(samples[i].unix_ns, samples[i - 1].unix_ns);
}

TEST(ObsRecorder, StartNeedsAnIntervalAndASink) {
  std::ostringstream jsonl;
  obs::RecorderOptions no_sink;
  EXPECT_THROW(obs::Recorder(no_sink).start(), std::invalid_argument);
  obs::RecorderOptions no_interval;
  no_interval.interval_seconds = 0.0;
  no_interval.jsonl = &jsonl;
  EXPECT_THROW(obs::Recorder(no_interval).start(), std::invalid_argument);
}

TEST(ObsRecorder, StartStopRacesWritersAndSnapshotReaders) {
  // The TSan surface the `threaded` ctest label exists for: the sampler
  // thread snapshots the registry while writer threads bump counters,
  // reader threads take their own snapshots, and the main thread churns
  // start()/stop(). Assertions are deliberately light — the test's job is
  // to make every cross-thread edge visible to TSan.
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  const obs::Counter c = obs::Registry::global().counter("t.rec.race");

  std::ostringstream jsonl;
  obs::RecorderOptions opts;
  opts.interval_seconds = 0.001;
  opts.jsonl = &jsonl;
  obs::Recorder recorder(opts);

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w)
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) c.add();
    });
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed))
        (void)obs::Registry::global().snapshot();
    });

  std::size_t lines = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    recorder.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    recorder.stop();
    // stop() joined the sampler, so the sink is safe to read here, and it
    // took a final sample.
    const std::size_t now = read_jsonl(jsonl.str()).size();
    EXPECT_GT(now, lines);
    lines = now;
  }

  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  obs::set_metrics_enabled(false);

  const std::vector<Snapshot> samples = read_jsonl(jsonl.str());
  ASSERT_FALSE(samples.empty());
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_GE(samples[i].counter("t.rec.race"),
              samples[i - 1].counter("t.rec.race"));
  obs::Registry::global().reset();
}

TEST(ObsRecorder, SweepBytesAreIdenticalWithRecorderOn) {
  exec::SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kCyclic, SchemeKind::kHeterAware};
  grid.seeds = {7, 8};
  grid.iterations = 10;

  const auto csv_of = [](const exec::ResultTable& table) {
    std::ostringstream os;
    table.to_csv(os);
    return os.str();
  };
  exec::SweepOptions plain_opts;
  plain_opts.threads = 1;
  const std::string plain = csv_of(exec::run_sweep(grid, plain_opts));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::Registry::global().reset();
    obs::set_metrics_enabled(true);
    std::ostringstream jsonl;
    exec::SweepOptions opts;
    opts.threads = threads;
    opts.metrics_interval_seconds = 0.002;
    opts.metrics_log = &jsonl;
    const std::string recorded = csv_of(exec::run_sweep(grid, opts));
    obs::set_metrics_enabled(false);

    EXPECT_EQ(recorded, plain) << "threads=" << threads;
    // The recorder's last line is its final sample, taken after the pool
    // drained: it has seen every cell finish.
    std::istringstream lines(jsonl.str());
    std::string line, last;
    while (std::getline(lines, line))
      if (!line.empty()) last = line;
    ASSERT_FALSE(last.empty());
    EXPECT_EQ(Snapshot::read_json(last).counter("sweep.cells.done"),
              grid.num_cells());
  }
  obs::Registry::global().reset();

  // An interval without a sink is a mistake, not a silent no-op.
  exec::SweepOptions no_sink;
  no_sink.threads = 1;
  no_sink.metrics_interval_seconds = 0.002;
  EXPECT_THROW(exec::run_sweep(grid, no_sink), std::invalid_argument);
}

}  // namespace
}  // namespace hgc
