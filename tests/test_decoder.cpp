// Tests for the decoding-matrix builder (Eq. 2), the decode rule
// first_decodable_prefix and its decode-quorum gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/decoder.hpp"
#include "core/decoding_cache.hpp"
#include "core/group_based.hpp"
#include "core/heter_aware.hpp"
#include "core/naive.hpp"
#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "linalg_reference.hpp"
#include "reference_round.hpp"
#include "shuffle.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

TEST(DecodingMatrix, OneRowPerPattern) {
  Rng rng(51);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  const auto rows = build_decoding_matrix(scheme);
  EXPECT_EQ(rows.size(), 5u);  // C(5,1)
  for (const auto& row : rows) {
    // Coefficients vanish on the pattern's stragglers and reconstruct 1.
    for (WorkerId w : row.stragglers)
      EXPECT_DOUBLE_EQ(row.coefficients[w], 0.0);
    const Vector ab =
        ref::apply_transpose(scheme.sparse_matrix(), row.coefficients);
    for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-8);
  }
}

TEST(DecodingMatrix, PatternCountMatchesBinomial) {
  Rng rng(52);
  HeterAwareScheme scheme({2, 2, 3, 3, 4, 4}, 9, 2, rng);
  EXPECT_EQ(build_decoding_matrix(scheme).size(), 15u);  // C(6,2)
}

TEST(DecodingMatrix, NaiveHasSingleEmptyPattern) {
  NaiveScheme naive(4);
  const auto rows = build_decoding_matrix(naive);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].stragglers.empty());
  EXPECT_EQ(rows[0].coefficients, Vector(4, 1.0));
}

/// A deliberately broken scheme: decodable only when every worker responded
/// (claims) — or never (s = 0 case) — to exercise the builder's error paths.
class NeverDecodableScheme : public CodingScheme {
 public:
  NeverDecodableScheme(std::size_t m, std::size_t s)
      : CodingScheme(ref::from_dense(Matrix::ones(m, 1)),
                     Assignment(m, {0}), s, {{{}, m - s}}) {}
  std::string name() const override { return "never-decodable"; }
  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>&) const override {
    return std::nullopt;
  }
};

TEST(DecodingMatrix, EmptyPatternErrorDoesNotInventAWorkerId) {
  // s = 0 enumerates one empty pattern; the old message printed m ("worker
  // 2" here) as "the worker starting the pattern".
  NeverDecodableScheme scheme(2, 0);
  try {
    build_decoding_matrix(scheme);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("empty straggler pattern"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("worker 2"), std::string::npos) << what;
  }
}

TEST(DecodingMatrix, NonEmptyPatternErrorNamesItsFirstWorker) {
  NeverDecodableScheme scheme(3, 1);
  try {
    build_decoding_matrix(scheme);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("starting at worker 0"),
              std::string::npos)
        << e.what();
  }
}

// The threaded master's usage of first_decodable_prefix: after each
// result, the first decodable prefix of the arrivals so far, the i-th
// result stamped with time i, one cache for the run. Returns the number of
// results taken when a prefix first decodes (0 if none does) and its
// coefficients.
std::pair<std::size_t, std::optional<Vector>> decode_per_arrival(
    const CodingScheme& scheme, const std::vector<WorkerId>& order,
    DecodingCache& cache) {
  std::vector<Arrival> arrivals;
  for (WorkerId w : order) {
    arrivals.emplace_back(static_cast<double>(arrivals.size()), w);
    auto coefficients =
        first_decodable_prefix(scheme, arrivals, &cache).coefficients;
    if (coefficients) return {arrivals.size(), std::move(coefficients)};
  }
  return {0, std::nullopt};
}

// Results from `order` arriving at times 0, 1, 2, ….
std::vector<Arrival> in_order(const std::vector<WorkerId>& order) {
  std::vector<Arrival> arrivals;
  for (WorkerId w : order)
    arrivals.emplace_back(static_cast<double>(arrivals.size()), w);
  return arrivals;
}

// Per-partition scalar "gradients" 1..k (aggregate 28 at k = 7), coded per
// worker.
std::vector<Vector> coded_results(const CodingScheme& scheme) {
  std::vector<Vector> grads(scheme.num_partitions());
  for (std::size_t p = 0; p < grads.size(); ++p) grads[p] = {double(p + 1)};
  std::vector<Vector> coded(scheme.num_workers());
  for (WorkerId w = 0; w < scheme.num_workers(); ++w)
    coded[w] = encode_gradient(scheme, w, grads);
  return coded;
}

TEST(FirstDecodablePrefix, DecodesAtFirstSufficientArrival) {
  Rng rng(53);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  DecodingCache cache(scheme);
  // The fourth arrival leaves one worker missing (≤ s): decodable there,
  // not before.
  const auto [taken, coefficients] =
      decode_per_arrival(scheme, {0, 1, 2, 3, 4}, cache);
  EXPECT_EQ(taken, 4u);
  ASSERT_TRUE(coefficients.has_value());
  const Vector aggregate =
      combine_coded_gradients(*coefficients, coded_results(scheme));
  ASSERT_EQ(aggregate.size(), 1u);
  EXPECT_NEAR(aggregate[0], 28.0, 1e-8);
}

TEST(FirstDecodablePrefix, ExtraResultsAreUnused) {
  Rng rng(54);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  auto arrivals = in_order({0, 1, 2, 3, 4});
  const DecodablePrefix prefix = first_decodable_prefix(scheme, arrivals);
  ASSERT_TRUE(prefix.decisive.has_value());
  EXPECT_EQ(prefix.decisive->second, 3u);
  EXPECT_EQ(prefix.taken, 4u);
  // Late fifth result, poisoned: received but not part of the decode.
  auto coded = coded_results(scheme);
  coded[4] = {1e6};
  EXPECT_EQ((*prefix.coefficients)[4], 0.0);
  EXPECT_NEAR(combine_coded_gradients(*prefix.coefficients, coded)[0], 28.0,
              1e-8);
}

TEST(FirstDecodablePrefix, RejectsDuplicateResult) {
  Rng rng(55);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  auto arrivals = in_order({0, 0});
  EXPECT_THROW(first_decodable_prefix(scheme, arrivals),
               std::invalid_argument);
}

TEST(FirstDecodablePrefix, GroupFastPathDecodesBelowFullQuorum) {
  // Group-based {1,2,3,4,4}: groups {0,1,4} and {2,3}, so the smallest
  // quorum needs 2 — far below the m−s = 4 of heter-aware. Arrival order
  // 2, 3 completes a group: the first arrival alone meets no quorum and
  // the second must decode immediately.
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  std::size_t smallest = scheme.num_workers();
  for (const DecodeQuorum& q : scheme.quorums())
    smallest = std::min(smallest, q.need);
  ASSERT_EQ(smallest, 2u);
  DecodingCache cache(scheme);
  const auto [taken, coefficients] =
      decode_per_arrival(scheme, {2, 3}, cache);
  EXPECT_EQ(taken, 2u);
  EXPECT_EQ(cache.misses(), 1u);  // the lone first arrival was never probed
  ASSERT_TRUE(coefficients.has_value());
  EXPECT_NEAR(combine_coded_gradients(*coefficients, coded_results(scheme))[0],
              28.0, 1e-8);
}

TEST(FirstDecodablePrefix, LaterResultsStayUnused) {
  // Arrival order 0, 1, 2, 4, 3: no quorum is met (no complete group,
  // fewer than active−s results) until group {0,1,4} completes on the
  // fourth arrival. Worker 2's result and the later worker 3's end up
  // unused: poisoning them leaves the aggregate exact.
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  auto arrivals = in_order({0, 1, 2, 4, 3});
  const DecodablePrefix prefix = first_decodable_prefix(scheme, arrivals);
  ASSERT_TRUE(prefix.decisive.has_value());
  EXPECT_EQ(*prefix.decisive, Arrival(3.0, 4));
  EXPECT_EQ(prefix.taken, 4u);
  auto coded = coded_results(scheme);
  coded[2] = {1e6};
  coded[3] = {1e6};
  EXPECT_NEAR(combine_coded_gradients(*prefix.coefficients, coded)[0], 28.0,
              1e-8);
}

TEST(FirstDecodablePrefix, DuplicateAfterDecodabilityStillThrows) {
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  auto arrivals = in_order({2, 3, 2});
  EXPECT_THROW(first_decodable_prefix(scheme, arrivals),
               std::invalid_argument);
}

TEST(OnesInRowSpan, BasicGeometry) {
  const SparseRowMatrix b =
      ref::from_dense(Matrix{{1.0, 0.0}, {0.0, 1.0}, {2.0, 2.0}});
  const std::vector<std::size_t> both = {0, 1};
  EXPECT_TRUE(ones_in_row_span(b, both));
  const std::vector<std::size_t> third = {2};
  EXPECT_TRUE(ones_in_row_span(b, third));  // 0.5 * (2,2)
  const std::vector<std::size_t> first = {0};
  EXPECT_FALSE(ones_in_row_span(b, first));
  EXPECT_FALSE(ones_in_row_span(b, std::vector<std::size_t>{}));
}

TEST(ForEachStragglerPattern, CountsAndEarlyExit) {
  std::size_t count = 0;
  for_each_straggler_pattern(6, 2, [&](const StragglerSet&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 15u);  // C(6,2)

  count = 0;
  const bool completed = for_each_straggler_pattern(
      6, 2, [&](const StragglerSet&) { return ++count < 4; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 4u);
}

TEST(ForEachStragglerPattern, ZeroStragglersVisitsOnce) {
  std::size_t count = 0;
  for_each_straggler_pattern(5, 0, [&](const StragglerSet& s) {
    EXPECT_TRUE(s.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST(CompletionTime, MatchesHandComputedOrder) {
  Rng rng(58);
  // c = [1,2,3,4,4], loads = [1,2,3,4,4] (partitions), t_i = load/c = 1 for
  // every worker; any single straggler still completes at t = 1.
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  const Throughputs c = {1, 2, 3, 4, 4};
  const auto t = completion_time(scheme, c, {2});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0, 1e-12);
}

TEST(CompletionTime, UndecodableReturnsNullopt) {
  NaiveScheme naive(3);
  const Throughputs c = {1, 1, 1};
  EXPECT_FALSE(completion_time(naive, c, {0}).has_value());
}

TEST(CompletionTime, MatchesStableSortReference) {
  // Equal-throughput workers with equal loads finish at exactly the same
  // time, so the (time, worker) tie-break decides which prefix decodes
  // first. Every exact-s pattern on Table II clusters A–C, each paper
  // scheme, s ∈ {1, 2}, uncached and with one cache shared across the
  // enumeration (as worst_case_time shares it).
  std::size_t decoded = 0;
  std::size_t undecodable = 0;
  std::size_t tied = 0;  // patterns where two arrivals share a time
  for (const Cluster& cluster : {cluster_a(), cluster_b(), cluster_c()}) {
    const Throughputs c = cluster.throughputs();
    const std::size_t m = c.size();
    for (SchemeKind kind : paper_schemes()) {
      for (std::size_t s = 1; s <= 2; ++s) {
        Rng rng(94);
        const auto scheme = make_scheme(
            kind, c, exact_partition_count(cluster, s), s, rng);
        DecodingCache cache(*scheme);
        for_each_straggler_pattern(m, s, [&](const StragglerSet& stragglers) {
          std::vector<bool> straggles(m, false);
          for (WorkerId w : stragglers) straggles[w] = true;
          std::vector<std::pair<double, WorkerId>> arrivals;
          std::vector<double> times;
          for (WorkerId w = 0; w < m; ++w) {
            if (straggles[w] || scheme->load(w) == 0) continue;
            arrivals.emplace_back(
                static_cast<double>(scheme->load(w)) / c[w], w);
            times.push_back(arrivals.back().first);
          }
          std::sort(times.begin(), times.end());
          if (std::adjacent_find(times.begin(), times.end()) != times.end())
            ++tied;
          const engine::RoundOutcome want = reference_round(*scheme, arrivals);
          ++(want.decoded ? decoded : undecodable);
          for (DecodingCache* maybe_cache :
               {static_cast<DecodingCache*>(nullptr), &cache}) {
            const auto got =
                completion_time(*scheme, c, stragglers, maybe_cache);
            const std::string where =
                cluster.name() + "/" + to_string(kind) + "/s=" +
                std::to_string(s) + ", straggler " +
                std::to_string(stragglers.front()) +
                (maybe_cache ? ", cached" : ", uncached");
            EXPECT_EQ(got.has_value(), want.decoded) << where;
            if (got && want.decoded) {
              EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
                        std::bit_cast<std::uint64_t>(want.time))
                  << where;
            }
          }
          return true;
        });
      }
    }
  }
  EXPECT_GT(decoded, 1000u);
  EXPECT_GT(undecodable, 0u);
  EXPECT_GT(tied, 1000u);
}

// ------------------------------------------------------- quorum gate --

struct GateCase {
  std::string label;
  std::unique_ptr<CodingScheme> scheme;
};

// Every scheme kind on the four Table II clusters with s ∈ {1, 2} (naive
// ignores s, fractional needs (s+1) | m), k = m.
std::vector<GateCase> table2_cases() {
  std::vector<GateCase> cases;
  std::uint64_t seed = 900;
  for (const Cluster& cluster : paper_clusters()) {
    const Throughputs c = cluster.throughputs();
    const std::size_t m = c.size();
    for (std::size_t s : {1u, 2u}) {
      for (SchemeKind kind :
           {SchemeKind::kNaive, SchemeKind::kCyclic,
            SchemeKind::kFractionalRepetition, SchemeKind::kHeterAware,
            SchemeKind::kGroupBased}) {
        if (kind == SchemeKind::kNaive && s != 1) continue;
        if (kind == SchemeKind::kFractionalRepetition && m % (s + 1) != 0)
          continue;
        Rng rng(seed++);
        cases.push_back({to_string(kind) + "/m=" + std::to_string(m) +
                             "/s=" + std::to_string(s),
                         make_scheme(kind, c, m, s, rng)});
      }
    }
  }
  return cases;
}

// Half the draws knock out a handful of workers (where decodes succeed),
// half keep each worker with a random probability (where they mostly fail).
std::vector<bool> random_received(std::size_t m, Rng& rng) {
  std::vector<bool> received(m, true);
  if (rng.bernoulli(0.5)) {
    const auto missing = static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t w : rng.sample_without_replacement(m, missing))
      received[w] = false;
  } else {
    const double keep = rng.uniform();
    for (std::size_t w = 0; w < m; ++w) received[w] = rng.bernoulli(keep);
  }
  return received;
}

TEST(QuorumGate, SoundOnTable2Clusters) {
  // The contract the gate rests on: whenever decoding_coefficients
  // succeeds, some quorum is met. Exhaustive over all 2^m received sets
  // where m ≤ 12, 2,000 seeded sets otherwise.
  Rng subsets(77);
  for (const GateCase& gate_case : table2_cases()) {
    const CodingScheme& scheme = *gate_case.scheme;
    const std::size_t m = scheme.num_workers();
    std::size_t successes = 0;
    const auto check = [&](const std::vector<bool>& received) {
      if (!scheme.decoding_coefficients(received)) return;
      ++successes;
      EXPECT_TRUE(scheme.quorum_met(received)) << gate_case.label;
    };
    if (m <= 12) {
      std::vector<bool> received(m);
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
        for (std::size_t w = 0; w < m; ++w) received[w] = (mask >> w) & 1u;
        check(received);
      }
    } else {
      for (int draw = 0; draw < 2000; ++draw) check(random_received(m, subsets));
    }
    EXPECT_GT(successes, 0u) << gate_case.label << ": vacuous check";
  }
}

TEST(QuorumGate, GatedDecoderMatchesUngatedReference) {
  // 200 seeded arrival orders (a random number of stragglers never
  // arrive): first_decodable_prefix over the whole round (with and without
  // a decoding cache) and per arrival on the growing list (the threaded
  // master's usage, one cache) must decode at the same arrival as a
  // reference probing every prefix, with bit-identical coefficients. Per
  // arrival, the cache must hold the solves to one per prefix from the
  // first met quorum on, as if each prefix were probed once.
  Rng orders(79);
  const auto cases = table2_cases();
  for (int trial = 0; trial < 200; ++trial) {
    const GateCase& gate_case = cases[static_cast<std::size_t>(trial) %
                                      cases.size()];
    const CodingScheme& scheme = *gate_case.scheme;
    const std::size_t m = scheme.num_workers();
    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), std::size_t{0});
    shuffle(orders, std::span<std::size_t>(order));
    order.resize(m - static_cast<std::size_t>(orders.uniform_int(0, 3)));

    std::optional<Vector> expected;
    std::size_t expected_at = 0;
    std::size_t gated_probes = 0;
    std::vector<bool> received(m, false);
    for (std::size_t i = 0; i < order.size() && !expected; ++i) {
      received[order[i]] = true;
      if (scheme.quorum_met(received)) ++gated_probes;
      expected = scheme.decoding_coefficients(received);
      expected_at = i + 1;
    }

    const auto expect_bit_identical = [&](const Vector& got) {
      ASSERT_EQ(got.size(), expected->size());
      for (std::size_t w = 0; w < m; ++w)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[w]),
                  std::bit_cast<std::uint64_t>((*expected)[w]))
            << gate_case.label << " worker " << w;
    };

    DecodingCache master_cache(scheme);
    const auto [decoded_at, master] =
        decode_per_arrival(scheme, order, master_cache);
    ASSERT_EQ(master.has_value(), expected.has_value())
        << gate_case.label << " trial " << trial;
    EXPECT_EQ(master_cache.misses(), gated_probes) << gate_case.label;
    if (expected) {
      EXPECT_EQ(decoded_at, expected_at) << gate_case.label;
      expect_bit_identical(*master);
    }

    // The i-th arrival of `order` lands at time i; the list is handed over
    // reversed so the function's own ordering decides.
    DecodingCache prefix_cache(scheme);
    for (DecodingCache* maybe_cache :
         {static_cast<DecodingCache*>(nullptr), &prefix_cache}) {
      std::vector<Arrival> arrivals;
      for (std::size_t i = order.size(); i-- > 0;)
        arrivals.emplace_back(static_cast<double>(i), order[i]);
      const DecodablePrefix prefix =
          first_decodable_prefix(scheme, arrivals, maybe_cache);
      const std::string where = gate_case.label + " trial " +
                                std::to_string(trial) +
                                (maybe_cache ? ", cached" : ", uncached");
      ASSERT_EQ(prefix.decisive.has_value(), expected.has_value()) << where;
      ASSERT_EQ(prefix.coefficients.has_value(), expected.has_value())
          << where;
      const std::size_t want_taken = expected ? expected_at : order.size();
      ASSERT_EQ(prefix.taken, want_taken) << where;
      // The first `taken` entries are exactly the taken arrivals.
      std::vector<WorkerId> taken;
      for (std::size_t i = 0; i < prefix.taken; ++i)
        taken.push_back(arrivals[i].second);
      std::sort(taken.begin(), taken.end());
      std::vector<WorkerId> want(order.begin(),
                                 order.begin() + static_cast<std::ptrdiff_t>(
                                                     want_taken));
      std::sort(want.begin(), want.end());
      EXPECT_EQ(taken, want) << where;
      if (!expected) continue;
      EXPECT_EQ(prefix.decisive->first,
                static_cast<double>(expected_at - 1))
          << where;
      EXPECT_EQ(prefix.decisive->second, order[expected_at - 1]) << where;
      expect_bit_identical(*prefix.coefficients);
    }
  }
}

// Forwards to a wrapped scheme (same matrix, same quorums) and counts the
// real decode solves a caller performs.
class SolveCountingScheme : public CodingScheme {
 public:
  explicit SolveCountingScheme(const CodingScheme& inner)
      : CodingScheme(SparseRowMatrix(inner.sparse_matrix()),
                     Assignment(inner.assignment()),
                     inner.stragglers_tolerated(), inner.quorums()),
        inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const override {
    ++solves;
    return inner_.decoding_coefficients(received);
  }

  mutable std::size_t solves = 0;

 private:
  const CodingScheme& inner_;
};

TEST(QuorumGate, TenThousandWorkerGroupRoundTakesAtMostTwoSolves) {
  // Ungated, the master re-solved on every arrival past the smallest group
  // size — about 1,300 solves per round at this scale.
  const Cluster cluster = scale_cluster(10000);
  Rng rng(80);
  const GroupBasedScheme inner(cluster.throughputs(), cluster.size(), 2, rng);
  SolveCountingScheme scheme(inner);

  StragglerModel model;
  model.num_stragglers = 2;
  model.delay_seconds = 10.0;
  model.fluctuation_sigma = 0.05;
  Rng conditions_rng(81);
  engine::FixedLatencyLink link(1e-4);
  for (int round = 0; round < 3; ++round) {
    scheme.solves = 0;
    const auto outcome = engine::run_round(
        scheme, cluster, model.draw(cluster.size(), conditions_rng), link);
    ASSERT_TRUE(outcome.decoded) << "round " << round;
    EXPECT_LE(scheme.solves, 2u) << "round " << round;
  }
}

}  // namespace
}  // namespace hgc
