// Tests for the observability layer: the metrics registry's concurrency and
// bucket semantics, trace-JSON well-formedness (parsed, not pattern-matched),
// and the zero-behavior-change contract — a sweep's ResultTable must be
// byte-identical with observability on or off, at any thread count.
//
// Global-state discipline: the registry and tracer are process-wide, so
// every test that enables either one disables it (and resets the tracer)
// before returning; tests never assume a zeroed registry without calling
// reset() themselves.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hgc {
namespace {

// Trace well-formedness is proven by parsing, not pattern-matching: the
// obs/json.hpp reader (originally written for these tests, since promoted
// into the library for Snapshot::read_json) loads the whole document.
using obs::JsonValue;
using obs::parse_json;

// --- Metrics registry ---------------------------------------------------

TEST(ObsRegistry, EightThreadHammerCountsExactly) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  const obs::Counter ones = obs::Registry::global().counter("t.hammer.ones");
  const obs::Counter threes =
      obs::Registry::global().counter("t.hammer.threes");
  const obs::Histogram hist = obs::Registry::global().histogram(
      "t.hammer.hist", {0.25, 0.5, 0.75});
  const obs::StatHandle stat = obs::Registry::global().stat("t.hammer.stat");

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        ones.add();
        threes.add(3);
        hist.observe(static_cast<double>((t + i) % 4) * 0.25);  // 0..0.75
        stat.observe(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();

  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.counter("t.hammer.ones"), kThreads * kPerThread);
  EXPECT_EQ(snap.counter("t.hammer.threes"), 3 * kThreads * kPerThread);
  const auto& h = snap.histograms.at("t.hammer.hist");
  EXPECT_EQ(h.total(), kThreads * kPerThread);
  const auto& s = snap.stats.at("t.hammer.stat");
  EXPECT_EQ(s.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(s.mean(), 1.0);

  obs::set_metrics_enabled(false);
}

TEST(ObsRegistry, HistogramBucketsAreUpperInclusive) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  const obs::Histogram h =
      obs::Registry::global().histogram("t.buckets", {1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1        -> bucket 0
  h.observe(1.0);  // == bound 0  -> bucket 0 (upper-inclusive)
  h.observe(1.5);  //             -> bucket 1
  h.observe(2.0);  // == bound 1  -> bucket 1
  h.observe(4.0);  // == bound 2  -> bucket 2
  h.observe(5.0);  // > last      -> overflow
  obs::set_metrics_enabled(false);

  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const auto& hist = snap.histograms.at("t.buckets");
  ASSERT_EQ(hist.bounds.size(), 3u);
  ASSERT_EQ(hist.counts.size(), 4u);
  EXPECT_EQ(hist.counts[0], 2u);
  EXPECT_EQ(hist.counts[1], 2u);
  EXPECT_EQ(hist.counts[2], 1u);
  EXPECT_EQ(hist.counts[3], 1u);  // overflow
  EXPECT_EQ(hist.total(), 6u);
}

TEST(ObsRegistry, DisabledSitesRecordNothing) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(false);
  const obs::Counter c = obs::Registry::global().counter("t.disabled.c");
  const obs::Histogram h =
      obs::Registry::global().histogram("t.disabled.h", {1.0});
  const obs::Gauge g = obs::Registry::global().gauge("t.disabled.g");
  c.add(100);
  h.observe(0.5);
  g.set(7.0);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.counter("t.disabled.c"), 0u);
  EXPECT_EQ(snap.histograms.at("t.disabled.h").total(), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("t.disabled.g").value, 0.0);
}

TEST(ObsRegistry, ResetZeroesValuesButHandlesStayLive) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  const obs::Counter c = obs::Registry::global().counter("t.reset.c");
  c.add(5);
  obs::Registry::global().reset();
  c.add(2);  // the pre-reset handle still points at a valid slot
  obs::set_metrics_enabled(false);
  EXPECT_EQ(obs::Registry::global().snapshot().counter("t.reset.c"), 2u);
}

TEST(ObsRegistry, SnapshotCounterIsZeroForUnknownNames) {
  EXPECT_EQ(obs::Registry::global().snapshot().counter("t.never.registered"),
            0u);
}

TEST(ObsRegistry, NameReuseAcrossKindsThrows) {
  obs::Registry::global().counter("t.kind.clash");
  EXPECT_THROW(obs::Registry::global().gauge("t.kind.clash"),
               std::invalid_argument);
  EXPECT_THROW(
      obs::Registry::global().histogram("t.kind.clash", {1.0}),
      std::invalid_argument);
}

TEST(ObsRegistry, SnapshotJsonNamesEveryRegisteredInstrument) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  obs::Registry::global().counter("t.json.c").add(4);
  obs::Registry::global().gauge("t.json.g").set(2.5);
  obs::set_metrics_enabled(false);
  std::ostringstream os;
  obs::Registry::global().snapshot().write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"t.json.c\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"t.json.g\": {\"value\": 2.5"), std::string::npos)
      << json;
}

// --- Trace JSON ---------------------------------------------------------

TEST(ObsTracer, EmitsWellFormedChromeTraceWithBothClocks) {
  obs::Tracer::global().reset();
  obs::set_trace_enabled(true);
  {
    HGC_TRACE_SCOPE("unit_span", "test", 42);
  }
  obs::trace_virtual_span(/*track=*/3, /*row=*/0, "round", "test", 0.5, 1.5);
  obs::trace_virtual_span(/*track=*/3, /*row=*/2, "compute", "test", 0.0,
                          0.25);
  obs::trace_virtual_instant(/*track=*/3, /*row=*/1, "fault", "test", 0.75);
  obs::set_trace_enabled(false);

  std::ostringstream os;
  obs::Tracer::global().write_json(os);
  obs::Tracer::global().reset();

  const JsonValue root = parse_json(os.str());
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_EQ(root.at("displayTimeUnit").string, "ms");
  EXPECT_EQ(root.at("droppedEvents").as_u64(), 0u);
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);

  bool saw_wall_span = false, saw_virtual_span = false;
  bool saw_virtual_instant = false, saw_virtual_process_name = false;
  double wall_pid = -1.0, virtual_pid = -1.0;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    const std::string& ph = e.at("ph").string;
    if (ph == "M") {
      if (e.at("name").string == "process_name" &&
          e.at("args").at("name").string.find("virtual clock") == 0)
        saw_virtual_process_name = true;
      continue;
    }
    ASSERT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    const std::string& name = e.at("name").string;
    if (name == "unit_span") {
      EXPECT_EQ(ph, "X");
      EXPECT_EQ(e.object.count("dur"), 1u);
      EXPECT_EQ(e.at("args").at("v").number, 42.0);
      wall_pid = e.at("pid").number;
      saw_wall_span = true;
    } else if (name == "round") {
      EXPECT_EQ(ph, "X");
      EXPECT_DOUBLE_EQ(e.at("ts").number, 0.5e6);   // virtual s -> us
      EXPECT_DOUBLE_EQ(e.at("dur").number, 1.5e6);
      virtual_pid = e.at("pid").number;
      saw_virtual_span = true;
    } else if (name == "fault") {
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(e.object.count("dur"), 0u);
      saw_virtual_instant = true;
    }
  }
  EXPECT_TRUE(saw_wall_span);
  EXPECT_TRUE(saw_virtual_span);
  EXPECT_TRUE(saw_virtual_instant);
  EXPECT_TRUE(saw_virtual_process_name);
  // The two clocks must land on different Chrome process axes.
  EXPECT_GE(wall_pid, 0.0);
  EXPECT_GE(virtual_pid, 0.0);
  EXPECT_NE(wall_pid, virtual_pid);
  EXPECT_EQ(obs::Tracer::global().dropped(), 0u);
}

TEST(ObsTracer, DisabledScopesRecordNothing) {
  obs::Tracer::global().reset();
  obs::set_trace_enabled(false);
  {
    HGC_TRACE_SCOPE("should_not_appear", "test");
  }
  obs::trace_virtual_span(1, 0, "nor_this", "test", 0.0, 1.0);
  std::ostringstream os;
  obs::Tracer::global().write_json(os);
  const JsonValue root = parse_json(os.str());
  for (const JsonValue& e : root.at("traceEvents").array)
    EXPECT_EQ(e.at("ph").string, "M") << e.at("name").string;
}

TEST(ObsTracer, DropsAreCountedExportedAndWarnedOnce) {
  obs::Tracer::global().reset();
  obs::Registry::global().reset();
  obs::set_trace_buffer_capacity(4);
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  for (int i = 0; i < 10; ++i)
    obs::trace_virtual_instant(/*track=*/1, /*row=*/0, "spam", "test",
                               static_cast<double>(i));
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);
  obs::set_trace_buffer_capacity(1 << 20);

  EXPECT_EQ(obs::Tracer::global().dropped(), 6u);
  // The drop count is cross-posted to the metrics registry so fleet merges
  // can total trace loss without opening trace files.
  EXPECT_EQ(obs::Registry::global().snapshot().counter(
                "obs.trace.dropped_events"),
            6u);

  // write_json reports the loss in the file and warns once on stderr.
  testing::internal::CaptureStderr();
  std::ostringstream os;
  obs::Tracer::global().write_json(os);
  std::ostringstream again;
  obs::Tracer::global().write_json(again);
  const std::string warnings = testing::internal::GetCapturedStderr();
  EXPECT_NE(warnings.find("trace buffer overflow"), std::string::npos);
  EXPECT_EQ(warnings.find("trace buffer overflow"),
            warnings.rfind("trace buffer overflow"))
      << "warning should print once, got: " << warnings;
  const JsonValue root = parse_json(os.str());
  EXPECT_EQ(root.at("droppedEvents").as_u64(), 6u);
  EXPECT_EQ(root.at("traceEvents").array.size() -
                /* metadata rows: process + thread */ 2u,
            4u);
  obs::Tracer::global().reset();
  obs::Registry::global().reset();
}

// --- Zero behavior change under the sweep -------------------------------

exec::SweepGrid obs_grid() {
  exec::SweepGrid grid;
  grid.clusters = {cluster_a()};
  grid.schemes = {SchemeKind::kCyclic, SchemeKind::kHeterAware};
  grid.s_values = {1};
  grid.iterations = 12;
  exec::StragglerAxis delayed;
  delayed.delay_factor = 1.5;
  delayed.fluctuation_sigma = 0.05;
  grid.models = {exec::StragglerAxis{}, delayed};
  grid.seeds = {7, 8};
  return grid;
}

std::string csv_of(const exec::ResultTable& table) {
  std::ostringstream os;
  table.to_csv(os);
  return os.str();
}

TEST(ObsSweep, ResultTableIsByteIdenticalWithObservabilityOn) {
  const exec::SweepGrid grid = obs_grid();
  // Reference: observability fully off.
  const std::string plain = csv_of(exec::run_sweep(grid, {.threads = 1}));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::Registry::global().reset();
    obs::Tracer::global().reset();
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    obs::Snapshot snapshot;
    exec::SweepOptions opts;
    opts.threads = threads;
    opts.metrics_snapshot = &snapshot;
    const std::string instrumented = csv_of(exec::run_sweep(grid, opts));
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);

    EXPECT_EQ(instrumented, plain) << "threads=" << threads;
    // The run really was observed: the sink saw cells complete and solves
    // happen, and the tracer buffered events on both clocks.
    EXPECT_EQ(snapshot.counter("sweep.cells.done"), grid.num_cells());
    EXPECT_GT(snapshot.counter("engine.rounds"), 0u);
    std::ostringstream os;
    obs::Tracer::global().write_json(os);
    const JsonValue root = parse_json(os.str());
    bool saw_cell = false, saw_virtual = false;
    for (const JsonValue& e : root.at("traceEvents").array) {
      if (e.at("ph").string == "M") continue;
      if (e.at("name").string == "cell") saw_cell = true;
      if (e.at("pid").number > 1.0) saw_virtual = true;
    }
    EXPECT_TRUE(saw_cell) << "threads=" << threads;
    EXPECT_TRUE(saw_virtual) << "threads=" << threads;
    obs::Tracer::global().reset();
  }
}

}  // namespace
}  // namespace hgc
