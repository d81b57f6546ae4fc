// Tests for the engine: channel adapters and the coded round as a sorted
// arrival list.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/scheme_factory.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/iteration.hpp"

#include "reference_round.hpp"
#include "util/alloc_instrument.hpp"  // instruments this whole binary

namespace hgc {
namespace {

using engine::FixedLatencyLink;
using engine::NetworkLink;
using engine::RoundOptions;
using engine::RoundOutcome;

IterationConditions clean_conditions(std::size_t m) {
  IterationConditions cond;
  cond.speed_factor.assign(m, 1.0);
  cond.delay.assign(m, 0.0);
  cond.faulted.assign(m, false);
  return cond;
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
  // The straggler's arrival was never fed to the decoder: the master
  // released the barrier at the seventh.
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
  options.partition_gradients = &grads;  // shipped as wire frames
  options.iteration = 3;
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
  options.iteration = 17;
  const RoundOutcome round = engine::run_round(
      *scheme, cluster, clean_conditions(5), link, options);
  ASSERT_TRUE(round.decoded);
  ASSERT_EQ(round.aggregate.size(), 1u);
  EXPECT_NEAR(round.aggregate[0], 28.0, 1e-8);
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
  // A timing-only round allocates a fixed handful of buffers (outcome
  // vectors, the arrival list, decoder state) at any m.
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

// A link that answers every message with a fixed arrival time.
class ConstantLink : public engine::Link {
 public:
  explicit ConstantLink(double arrival) : arrival_(arrival) {}
  std::optional<double> transmit(NodeId, NodeId, std::size_t,
                                 double) override {
    return arrival_;
  }

 private:
  double arrival_;
};

TEST(EngineRound, RejectsNanOrPreSendArrival) {
  Rng rng(92);
  const Cluster cluster = cluster_a();
  const auto scheme = make_scheme(SchemeKind::kHeterAware,
                                  cluster.throughputs(), 24, 1, rng);
  // Every worker sends after computing, so an arrival at t = 0 precedes
  // every send.
  for (const double arrival : {std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    ConstantLink link(arrival);
    try {
      engine::run_round(*scheme, cluster, clean_conditions(8), link);
      ADD_FAILURE() << "arrival " << arrival << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("for worker 0"), std::string::npos)
          << e.what();
    }
  }
}

// Forwards to another link and records every arrival it answers, as
// (arrival, sender).
class RecordingLink : public engine::Link {
 public:
  explicit RecordingLink(engine::Link& inner) : inner_(&inner) {}
  std::optional<double> transmit(NodeId from, NodeId to, std::size_t bytes,
                                 double send_time) override {
    const auto arrival = inner_->transmit(from, to, bytes, send_time);
    if (arrival) answers.emplace_back(*arrival, from);
    return arrival;
  }

  std::vector<std::pair<double, WorkerId>> answers;

 private:
  engine::Link* inner_;
};

/// Bit-for-bit equality of a round and its reference.
void expect_same_round(const RoundOutcome& got, const RoundOutcome& want,
                       const std::string& where) {
  ASSERT_EQ(got.decoded, want.decoded) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time),
            std::bit_cast<std::uint64_t>(want.time))
      << where;
  EXPECT_EQ(got.results_used, want.results_used) << where;
  EXPECT_EQ(got.events_executed, want.events_executed) << where;
  if (!got.decoded) return;
  ASSERT_EQ(got.coefficients->size(), want.coefficients->size()) << where;
  for (std::size_t i = 0; i < got.coefficients->size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>((*got.coefficients)[i]),
              std::bit_cast<std::uint64_t>((*want.coefficients)[i]))
        << where << ", coefficient " << i;
}

/// Whether a round's arrival list holds two equal times.
bool has_tie(const std::vector<std::pair<double, WorkerId>>& answers) {
  std::vector<double> times;
  for (const auto& answer : answers) times.push_back(answer.first);
  std::sort(times.begin(), times.end());
  return std::adjacent_find(times.begin(), times.end()) != times.end();
}

TEST(EngineRound, TieOrderMatchesStableSortReference) {
  // Unit speed factors and delays from {0, d} make equal-throughput workers
  // arrive at exactly the same time, so the (time, worker) tie-break decides
  // which prefix decodes first. A few faults make some rounds undecodable.
  struct Case {
    const Cluster* cluster;
    std::unique_ptr<CodingScheme> scheme;
  };
  const std::vector<Cluster> clusters = paper_clusters();
  std::vector<Case> cases;
  for (const Cluster& cluster : clusters)
    for (SchemeKind kind : paper_schemes())
      for (std::size_t s = 1; s <= 2; ++s) {
        Rng build_rng(94);
        cases.push_back({&cluster,
                         make_scheme(kind, cluster.throughputs(),
                                     exact_partition_count(cluster, s), s,
                                     build_rng)});
      }

  for (const bool lossy : {false, true}) {
    LinkParams params;
    params.latency = 0.001;
    params.drop_probability = lossy ? 0.05 : 0.0;
    std::size_t decoded = 0;
    std::size_t undecodable = 0;
    std::size_t tied = 0;  // rounds where two arrivals share a time
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      const Case& c = cases[seed % cases.size()];
      const Cluster& cluster = *c.cluster;
      const std::size_t m = cluster.size();
      Rng rng(1000 + seed);
      const double d = 0.5 * ideal_iteration_time(cluster, 1);
      auto cond = clean_conditions(m);
      for (WorkerId w = 0; w < m; ++w) {
        if (rng.bernoulli(0.3)) cond.delay[w] = d;
        if (rng.bernoulli(0.02)) cond.faulted[w] = true;
      }

      FixedLatencyLink fixed(0.001);
      SimulatedNetwork network(m + 1, params, Rng(2000 + seed));
      NetworkLink networked(network);
      RecordingLink link(lossy ? static_cast<engine::Link&>(networked)
                               : static_cast<engine::Link&>(fixed));
      const RoundOutcome got = engine::run_round(*c.scheme, cluster, cond, link);
      const RoundOutcome want = reference_round(*c.scheme, link.answers);
      std::vector<double> times;
      for (const auto& answer : link.answers) times.push_back(answer.first);
      std::sort(times.begin(), times.end());
      if (std::adjacent_find(times.begin(), times.end()) != times.end())
        ++tied;

      const std::string where = cluster.name() + ", seed " +
                                std::to_string(seed) +
                                (lossy ? ", lossy" : ", lossless");
      ASSERT_EQ(got.decoded, want.decoded) << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time),
                std::bit_cast<std::uint64_t>(want.time))
          << where;
      EXPECT_EQ(got.results_used, want.results_used) << where;
      EXPECT_EQ(got.events_executed, want.events_executed) << where;
      if (!got.decoded) {
        ++undecodable;
        continue;
      }
      ++decoded;
      ASSERT_EQ(got.coefficients->size(), want.coefficients->size()) << where;
      for (std::size_t i = 0; i < got.coefficients->size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>((*got.coefficients)[i]),
                  std::bit_cast<std::uint64_t>((*want.coefficients)[i]))
            << where << ", coefficient " << i;
    }
    EXPECT_GT(decoded, 100u);
    EXPECT_GT(undecodable, 0u);
    EXPECT_GT(tied, 100u);
  }
}

TEST(EngineRound, TieOrderMatchesStableSortReferenceAtScale) {
  // scale_cluster has a handful of throughput classes, so with unit speed
  // factors and {0, d} delays thousands of workers tie and the selection
  // of a round's decisive arrival runs over large tied blocks. Up to s + 1
  // faults make some rounds undecodable. Fractional repetition's quorum
  // (one result per block, counted globally) is met well before every
  // block is covered, so its first probe fails and the later arrivals are
  // probed one by one.
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  const auto solves = [] {
    return obs::Registry::global().snapshot().counter("decode.solves");
  };
  std::size_t decoded = 0, undecodable = 0, tied = 0, probed_past_quorum = 0;
  for (const std::size_t m : {1000, 10000}) {
    const Cluster cluster = scale_cluster(m);
    const double d = 0.5 * ideal_iteration_time(cluster, 1);
    std::vector<SchemeKind> kinds = paper_schemes();
    kinds.push_back(SchemeKind::kFractionalRepetition);
    for (const SchemeKind kind : kinds) {
      const std::size_t s = kind == SchemeKind::kFractionalRepetition ? 1 : 2;
      Rng build_rng(95);
      const auto scheme =
          make_scheme(kind, cluster.throughputs(), 2 * m, s, build_rng);
      for (std::uint64_t seed = 0; seed < (m == 1000 ? 6 : 2); ++seed) {
        Rng rng(3000 + seed);
        auto cond = clean_conditions(m);
        for (WorkerId w = 0; w < m; ++w)
          if (rng.bernoulli(0.3)) cond.delay[w] = d;
        const auto faults = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(s) + 1));
        for (WorkerId w : rng.sample_without_replacement(m, faults))
          cond.faulted[w] = true;

        FixedLatencyLink fixed(0.001);
        RecordingLink link(fixed);
        const std::uint64_t solves_before = solves();
        const RoundOutcome got = engine::run_round(*scheme, cluster, cond, link);
        const std::uint64_t probes = solves() - solves_before;
        const RoundOutcome want = reference_round(*scheme, link.answers);
        if (has_tie(link.answers)) ++tied;
        const std::string where = scheme->name() + ", m " + std::to_string(m) +
                                  ", seed " + std::to_string(seed);
        expect_same_round(got, want, where);
        ++(got.decoded ? decoded : undecodable);
        if (kind == SchemeKind::kFractionalRepetition && got.decoded) {
          EXPECT_GT(probes, 1u) << where;
          ++probed_past_quorum;
        }
      }
    }
  }
  obs::set_metrics_enabled(false);
  obs::Registry::global().reset();
  EXPECT_GT(decoded, 20u);
  EXPECT_GT(undecodable, 0u);
  EXPECT_EQ(tied, decoded + undecodable);
  EXPECT_GT(probed_past_quorum, 0u);
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
