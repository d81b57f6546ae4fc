// Tests for the discrete-event engine: event queue, simulation clock,
// channel adapters, and the actor-based coded round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/scheme_factory.hpp"
#include "engine/event_queue.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "engine/simulation.hpp"
#include "sim/iteration.hpp"

#include "util/alloc_instrument.hpp"  // instruments this whole binary

namespace hgc {
namespace {

using engine::Event;
using engine::EventQueue;
using engine::FixedLatencyLink;
using engine::NetworkLink;
using engine::RoundOptions;
using engine::RoundOutcome;
using engine::Simulation;

IterationConditions clean_conditions(std::size_t m) {
  IterationConditions cond;
  cond.speed_factor.assign(m, 1.0);
  cond.delay.assign(m, 0.0);
  cond.faulted.assign(m, false);
  return cond;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    queue.push(1.0, [&order, i] { order.push_back(i); });
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, TagsBreakTimeTiesBeforeInsertionOrder) {
  // Tagged events at the same time fire in tag order regardless of when
  // they were scheduled — how SSP keeps its (time, worker) pop order.
  EventQueue queue;
  std::vector<int> order;
  queue.push(1.0, [&] { order.push_back(7); }, 7);
  queue.push(1.0, [&] { order.push_back(3); }, 3);
  queue.push(0.5, [&] { order.push_back(9); }, 9);  // earlier time wins
  queue.push(1.0, [&] { order.push_back(5); }, 5);
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{9, 3, 5, 7}));
}

// Reference model for the property tests: one scheduled event's ordering
// key. Sorting a log of these with std::stable_sort by (time, tag) leaves
// equal keys in insertion order — the queue's documented total order.
struct LoggedEvent {
  double time;
  std::uint64_t tag;
  std::size_t seq;  // insertion order
};

void stable_sort_by_time_tag(std::vector<LoggedEvent>& log) {
  std::stable_sort(log.begin(), log.end(),
                   [](const LoggedEvent& a, const LoggedEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.tag < b.tag;
                   });
}

TEST(EventQueue, RandomPushPopInterleavingMatchesStableSortReference) {
  // Few distinct times and tags force heavy (time, tag) collisions, so the
  // insertion-order tie-break decides most pops.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventQueue queue;
    std::vector<LoggedEvent> pending;  // reference: live events, by seq
    std::size_t fired = 0;
    std::size_t next_seq = 0;
    std::size_t last_fired = 0;
    for (int op = 0; op < 2000 || !pending.empty(); ++op) {
      if (op < 2000 && (pending.empty() || rng.bernoulli(0.55))) {
        const LoggedEvent e{static_cast<double>(rng.uniform_int(0, 7)),
                            static_cast<std::uint64_t>(rng.uniform_int(0, 3)),
                            next_seq++};
        queue.push(e.time, [&last_fired, seq = e.seq] { last_fired = seq; },
                   e.tag);
        pending.push_back(e);
        continue;
      }
      std::vector<LoggedEvent> sorted = pending;
      stable_sort_by_time_tag(sorted);
      const LoggedEvent want = sorted.front();
      std::erase_if(pending,
                    [&](const LoggedEvent& e) { return e.seq == want.seq; });
      ASSERT_EQ(queue.size(), pending.size() + 1);
      Event got = queue.pop();
      got.action();
      ++fired;
      ASSERT_EQ(last_fired, want.seq) << "seed " << seed << ", pop " << fired;
      ASSERT_EQ(got.time, want.time);
      ASSERT_EQ(got.tag, want.tag);
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(fired, next_seq);
  }
}

TEST(Simulation, HandlerSchedulingMatchesStableSortReference) {
  // Handlers schedule follow-ups the way SSP restarts a worker. A follow-up
  // never sorts before the running event — a zero delay keeps a tag at least
  // the parent's — so the whole run must fire in the order of one stable
  // sort of every event ever scheduled.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Simulation sim;
    std::vector<LoggedEvent> log;
    std::vector<std::size_t> fired;
    std::function<void(std::size_t)> handler;
    auto schedule = [&](double time, std::uint64_t tag) {
      const std::size_t seq = log.size();
      log.push_back({time, tag, seq});
      sim.schedule_at(time, [&handler, seq] { handler(seq); }, tag);
    };
    handler = [&](std::size_t seq) {
      fired.push_back(seq);
      const std::uint64_t tag = log[seq].tag;
      for (int child = 0; child < 2 && log.size() < 3000; ++child) {
        if (!rng.bernoulli(0.5)) continue;
        const auto delay = static_cast<double>(rng.uniform_int(0, 2));
        const auto lo = static_cast<std::int64_t>(delay == 0.0 ? tag : 0);
        schedule(sim.now() + delay,
                 static_cast<std::uint64_t>(rng.uniform_int(lo, 3)));
      }
    };
    for (int i = 0; i < 200; ++i)
      schedule(static_cast<double>(rng.uniform_int(0, 5)),
               static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
    sim.run();

    stable_sort_by_time_tag(log);
    std::vector<std::size_t> want;
    for (const LoggedEvent& e : log) want.push_back(e.seq);
    EXPECT_EQ(fired, want) << "seed " << seed;
  }
}

TEST(EventQueue, SlabStaysWithinPeakPendingOverLongRun) {
  // A long-lived loop (SSP's shape): 16 self-rescheduling chains for 100k
  // events. Popped slots are recycled, so the slab never outgrows the peak
  // number of simultaneously pending events.
  EventQueue queue;
  std::size_t peak = 0;
  std::size_t runs = 0;
  std::function<void()> reschedule;
  auto push = [&](double time, std::uint64_t tag) {
    queue.push(time, [&] { reschedule(); }, tag);
    peak = std::max(peak, queue.size());
  };
  double now = 0.0;
  std::uint64_t chain = 0;
  reschedule = [&] {
    if (++runs < 100000)
      push(now + 1.0 + static_cast<double>(chain % 3), chain);
  };
  for (std::uint64_t c = 0; c < 16; ++c) push(static_cast<double>(c), c);
  while (!queue.empty()) {
    Event event = queue.pop();
    now = event.time;
    chain = event.tag;
    event.action();
  }
  EXPECT_EQ(runs, 100000u + 15u);
  EXPECT_EQ(peak, 16u);
  EXPECT_LE(queue.slab_size(), peak);
}

TEST(Simulation, ClockFollowsEventTimes) {
  Simulation sim;
  std::vector<double> seen;
  sim.schedule_at(2.5, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(1.0, [&] { seen.push_back(sim.now()); });
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulation, HandlersMayScheduleMoreEvents) {
  Simulation sim;
  std::vector<double> ticks;
  std::function<void()> tick = [&] {
    ticks.push_back(sim.now());
    if (ticks.size() < 5) sim.schedule_after(1.0, tick);
  };
  sim.schedule_after(1.0, tick);
  sim.run();
  EXPECT_EQ(ticks, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(Simulation, RejectsPastAndNegative) {
  Simulation sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.run_until(1.0), std::invalid_argument);
}

TEST(Simulation, StopHaltsTheLoopAndResumeContinues) {
  Simulation sim;
  int ran = 0;
  for (int i = 1; i <= 4; ++i)
    sim.schedule_at(static_cast<double>(i), [&] {
      if (++ran == 2) sim.stop();
    });
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.resume();
  sim.run();
  EXPECT_EQ(ran, 4);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, RunUntilExecutesPrefixAndAdvancesClock) {
  Simulation sim;
  int ran = 0;
  sim.schedule_at(1.0, [&] { ++ran; });
  sim.schedule_at(3.0, [&] { ++ran; });
  EXPECT_EQ(sim.run_until(2.0), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Links, FixedLatencyShiftsArrival) {
  FixedLatencyLink link(0.25);
  const auto arrival = link.transmit(0, 1, 1000, 2.0);
  ASSERT_TRUE(arrival.has_value());
  EXPECT_DOUBLE_EQ(*arrival, 2.25);
  EXPECT_THROW(FixedLatencyLink(-0.1), std::invalid_argument);
}

TEST(Links, NetworkLinkForwardsDrops) {
  LinkParams params;
  params.drop_probability = 1.0;
  SimulatedNetwork network(4, params, Rng(9));
  NetworkLink link(network);
  EXPECT_FALSE(link.transmit(0, 3, 100, 0.0).has_value());
  EXPECT_EQ(network.messages_dropped(), 1u);
}

TEST(EngineRound, TimingOnlyHitsAnalyticDecodeTime) {
  Rng rng(81);
  const Cluster cluster = cluster_a();
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  FixedLatencyLink link;
  const RoundOutcome round =
      engine::run_round(*scheme, cluster, clean_conditions(8), link);
  ASSERT_TRUE(round.decoded);
  EXPECT_NEAR(round.time, ideal_iteration_time(cluster, 1), 1e-9);
  EXPECT_TRUE(round.coefficients.has_value());
  EXPECT_TRUE(round.aggregate.empty());  // timing-only round carries no data
}

TEST(EngineRound, MasterStopsLoopAtFirstDecodableArrival) {
  Rng rng(82);
  const Cluster cluster = cluster_a();
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  auto cond = clean_conditions(8);
  cond.delay[3] = 100.0;  // one straggler, s = 1: never waited for
  FixedLatencyLink link;
  const RoundOutcome round =
      engine::run_round(*scheme, cluster, cond, link);
  ASSERT_TRUE(round.decoded);
  EXPECT_NEAR(round.time, ideal_iteration_time(cluster, 1), 1e-9);
  EXPECT_EQ(round.results_used, 7u);
  // The straggler's delivery event never ran: the master released the
  // barrier and stopped the clock first.
  EXPECT_EQ(round.events_executed, 7u);
}

TEST(EngineRound, UndecodableRoundDrainsAndReportsFailure) {
  Rng rng(83);
  const Cluster cluster = cluster_a();
  const auto naive =
      make_scheme(SchemeKind::kNaive, cluster.throughputs(), 8, 0, rng);
  auto cond = clean_conditions(8);
  cond.faulted[2] = true;
  FixedLatencyLink link;
  const RoundOutcome round = engine::run_round(*naive, cluster, cond, link);
  EXPECT_FALSE(round.decoded);
  EXPECT_EQ(round.time, std::numeric_limits<double>::infinity());
  EXPECT_EQ(round.resource_usage, 0.0);
}

TEST(EngineRound, PayloadRoundRecoversAggregate) {
  Rng rng(84);
  const Throughputs c = {1, 2, 3, 4, 4};
  const Cluster cluster("five", {{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0},
                                 {4, 4.0}});
  const auto scheme = make_scheme(SchemeKind::kHeterAware, c, 7, 1, rng);
  // Per-partition scalar "gradients" 1..7; aggregate = 28.
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};
  auto cond = clean_conditions(5);
  cond.delay[1] = 50.0;  // absorbed by s = 1
  FixedLatencyLink link;
  RoundOptions options;
  options.partition_gradients = &grads;
  const RoundOutcome round =
      engine::run_round(*scheme, cluster, cond, link, options);
  ASSERT_TRUE(round.decoded);
  ASSERT_EQ(round.aggregate.size(), 1u);
  EXPECT_NEAR(round.aggregate[0], 28.0, 1e-8);
}

TEST(EngineRound, WireFramesOverNetworkRecoverAggregate) {
  Rng rng(85);
  const Throughputs c = {1, 2, 3, 4, 4};
  const Cluster cluster("five", {{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0},
                                 {4, 4.0}});
  const auto scheme = make_scheme(SchemeKind::kHeterAware, c, 7, 1, rng);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};
  SimulatedNetwork network(6, LinkParams{}, Rng(86));
  NetworkLink link(network);
  RoundOptions options;
  options.partition_gradients = &grads;
  options.wire_frames = true;
  options.iteration = 17;
  const RoundOutcome round = engine::run_round(
      *scheme, cluster, clean_conditions(5), link, options);
  ASSERT_TRUE(round.decoded);
  ASSERT_EQ(round.aggregate.size(), 1u);
  EXPECT_NEAR(round.aggregate[0], 28.0, 1e-8);
  EXPECT_GT(network.bytes_sent(), 0u);
}

TEST(EngineRound, LostMessagesAreCountedAsDropped) {
  Rng rng(87);
  const Throughputs c = {1, 2, 3, 4, 4};
  const Cluster cluster("five", {{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0},
                                 {4, 4.0}});
  const auto scheme = make_scheme(SchemeKind::kHeterAware, c, 7, 1, rng);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {1.0};
  LinkParams lossy;
  lossy.drop_probability = 1.0;
  SimulatedNetwork network(6, lossy, Rng(88));
  NetworkLink link(network);
  RoundOptions options;
  options.partition_gradients = &grads;
  options.wire_frames = true;
  const RoundOutcome round = engine::run_round(
      *scheme, cluster, clean_conditions(5), link, options);
  EXPECT_FALSE(round.decoded);
  EXPECT_EQ(round.dropped, 5u);
}

TEST(EngineRound, DeterministicAcrossCalls) {
  Rng rng(89);
  const Cluster cluster = cluster_a();
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  auto cond = clean_conditions(8);
  cond.delay[5] = 0.3;
  cond.speed_factor[1] = 0.7;
  FixedLatencyLink link(0.01);
  const RoundOutcome a = engine::run_round(*scheme, cluster, cond, link);
  const RoundOutcome b = engine::run_round(*scheme, cluster, cond, link);
  ASSERT_TRUE(a.decoded);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_EQ(a.results_used, b.results_used);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(EngineRound, TimingOnlyRoundAllocationsDoNotGrowWithWorkers) {
  // Every timing-only arrival closure fits std::function's inline buffer
  // and run_round reserves the queue for m events, so a round allocates a
  // fixed handful of buffers (outcome vectors, decoder state) at any m.
  auto allocations_per_round = [](std::size_t m) {
    const Cluster cluster = scale_cluster(m);
    Rng rng(91);
    const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                    cluster.throughputs(), m, 2, rng);
    auto cond = clean_conditions(m);
    cond.delay[0] = 1.0;  // two stragglers, absorbed by s = 2
    cond.delay[m / 2] = 1.0;
    FixedLatencyLink link;
    engine::run_round(*scheme, cluster, cond, link);  // warm-up
    const std::size_t before = alloc_instrument::allocation_count();
    const RoundOutcome round = engine::run_round(*scheme, cluster, cond, link);
    const std::size_t allocations =
        alloc_instrument::allocation_count() - before;
    EXPECT_TRUE(round.decoded) << "m = " << m;
    return allocations;
  };
  const std::size_t small = allocations_per_round(64);
  const std::size_t large = allocations_per_round(10000);
  EXPECT_LE(large, small + 8)
      << "m = 64: " << small << " allocations, m = 10000: " << large;
}

TEST(EngineRound, RejectsMismatchedSizes) {
  Rng rng(90);
  const Cluster cluster = cluster_a();
  const auto scheme =
      make_scheme(SchemeKind::kNaive, cluster.throughputs(), 8, 0, rng);
  FixedLatencyLink link;
  EXPECT_THROW(
      engine::run_round(*scheme, cluster, clean_conditions(5), link),
      std::invalid_argument);
}

}  // namespace
}  // namespace hgc
