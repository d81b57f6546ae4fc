// Tests for the decoding-matrix builder (Eq. 2), the streaming decoder and
// its decode-quorum gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>

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
    const Vector ab = scheme.coding_matrix().apply_transpose(row.coefficients);
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
      : CodingScheme(Matrix::ones(m, 1), Assignment(m, {0}), s,
                     {{{}, m - s}}) {}
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

TEST(StreamingDecoder, DecodesAtFirstSufficientArrival) {
  Rng rng(53);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);

  // Per-partition scalar "gradients" 1..7; aggregate = 28.
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};

  EXPECT_FALSE(decoder.add_result(0, encode_gradient(scheme, 0, grads)));
  EXPECT_FALSE(decoder.add_result(1, encode_gradient(scheme, 1, grads)));
  EXPECT_FALSE(decoder.add_result(2, encode_gradient(scheme, 2, grads)));
  EXPECT_FALSE(decoder.ready());
  // Fourth arrival: only one worker missing <= s, decodable.
  EXPECT_TRUE(decoder.add_result(3, encode_gradient(scheme, 3, grads)));
  EXPECT_TRUE(decoder.ready());
  EXPECT_EQ(decoder.results_received(), 4u);
  const Vector aggregate = decoder.aggregate();
  ASSERT_EQ(aggregate.size(), 1u);
  EXPECT_NEAR(aggregate[0], 28.0, 1e-8);
}

TEST(StreamingDecoder, ExtraResultsAreUnused) {
  Rng rng(54);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {1.0};
  for (WorkerId w = 0; w < 4; ++w)
    decoder.add_result(w, encode_gradient(scheme, w, grads));
  ASSERT_TRUE(decoder.ready());
  // Late fifth result: recorded but not part of the decode.
  EXPECT_FALSE(decoder.add_result(4, encode_gradient(scheme, 4, grads)));
  const auto unused = decoder.unused_workers();
  EXPECT_EQ(unused, (std::vector<WorkerId>{4}));
}

TEST(StreamingDecoder, RejectsDuplicateResult) {
  Rng rng(55);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  decoder.add_result(0, Vector{1.0});
  EXPECT_THROW(decoder.add_result(0, Vector{1.0}), std::invalid_argument);
}

TEST(StreamingDecoder, ThrowsBeforeReady) {
  Rng rng(56);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  EXPECT_THROW(decoder.aggregate(), DecodeError);
  EXPECT_THROW(decoder.coefficients(), DecodeError);
}

TEST(StreamingDecoder, ResetAllowsReuse) {
  Rng rng(57);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {2.0};
  for (WorkerId w = 0; w < 4; ++w)
    decoder.add_result(w, encode_gradient(scheme, w, grads));
  ASSERT_TRUE(decoder.ready());
  decoder.reset();
  EXPECT_FALSE(decoder.ready());
  EXPECT_EQ(decoder.results_received(), 0u);
  // Second iteration decodes again from scratch.
  for (WorkerId w = 1; w < 5; ++w)
    decoder.add_result(w, encode_gradient(scheme, w, grads));
  EXPECT_TRUE(decoder.ready());
  EXPECT_NEAR(decoder.aggregate()[0], 14.0, 1e-8);
}

TEST(StreamingDecoder, GroupFastPathDecodesBelowFullQuorum) {
  // Group-based {1,2,3,4,4}: groups {0,1,4} and {2,3}, so the smallest
  // quorum needs 2 — far below the m−s = 4 of heter-aware. Arrival order
  // 2, 3 completes a group: the first arrival must be skipped by the gate
  // (no quorum met) and the second must decode immediately.
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  std::size_t smallest = scheme.num_workers();
  for (const DecodeQuorum& q : scheme.quorums())
    smallest = std::min(smallest, q.need);
  ASSERT_EQ(smallest, 2u);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};

  EXPECT_FALSE(decoder.add_result(2, encode_gradient(scheme, 2, grads)));
  EXPECT_FALSE(decoder.ready());
  EXPECT_TRUE(decoder.add_result(3, encode_gradient(scheme, 3, grads)));
  EXPECT_TRUE(decoder.ready());
  EXPECT_EQ(decoder.results_received(), 2u);
  EXPECT_NEAR(decoder.aggregate()[0], 28.0, 1e-8);
}

TEST(StreamingDecoder, ArrivalOrderPastMinRequiresMoreSolves) {
  // Arrival order 0, 1, 2, 4: no quorum is met (no complete group, fewer
  // than active−s results), so the decoder keeps answering "not yet"
  // until group {0,1,4} completes on the fourth arrival. Worker 2's result
  // ends up unused.
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};

  EXPECT_FALSE(decoder.add_result(0, encode_gradient(scheme, 0, grads)));
  EXPECT_FALSE(decoder.add_result(1, encode_gradient(scheme, 1, grads)));
  EXPECT_FALSE(decoder.add_result(2, encode_gradient(scheme, 2, grads)));
  EXPECT_TRUE(decoder.add_result(4, encode_gradient(scheme, 4, grads)));
  EXPECT_EQ(decoder.results_received(), 4u);
  EXPECT_NEAR(decoder.aggregate()[0], 28.0, 1e-8);
  EXPECT_DOUBLE_EQ(decoder.coefficients()[2], 0.0);
  EXPECT_EQ(decoder.unused_workers(), (std::vector<WorkerId>{2}));

  // A result arriving after decodability is recorded but changes nothing.
  EXPECT_FALSE(decoder.add_result(3, encode_gradient(scheme, 3, grads)));
  EXPECT_EQ(decoder.results_received(), 5u);
  EXPECT_NEAR(decoder.aggregate()[0], 28.0, 1e-8);
}

TEST(StreamingDecoder, DuplicateAfterDecodabilityStillThrows) {
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {1.0};
  decoder.add_result(2, encode_gradient(scheme, 2, grads));
  decoder.add_result(3, encode_gradient(scheme, 3, grads));
  ASSERT_TRUE(decoder.ready());
  EXPECT_THROW(decoder.add_result(2, encode_gradient(scheme, 2, grads)),
               std::invalid_argument);
}

TEST(StreamingDecoder, ResetClearsDuplicateTracking) {
  Rng rng(55);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  decoder.add_result(0, Vector{1.0});
  decoder.reset();
  // The same worker may report again in the next iteration.
  EXPECT_NO_THROW(decoder.add_result(0, Vector{1.0}));
}

TEST(OnesInRowSpan, BasicGeometry) {
  const Matrix b{{1.0, 0.0}, {0.0, 1.0}, {2.0, 2.0}};
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

TEST(QuorumGate, TrackerAgreesWithDirectCheck) {
  // The incremental counters must report exactly scheme.quorum_met() of the
  // current prefix after every arrival, and forget everything on reset().
  Rng orders(78);
  for (const GateCase& gate_case : table2_cases()) {
    const CodingScheme& scheme = *gate_case.scheme;
    const std::size_t m = scheme.num_workers();
    QuorumTracker tracker(scheme);
    for (int round = 0; round < 3; ++round) {
      tracker.reset();
      EXPECT_FALSE(tracker.met()) << gate_case.label;
      std::vector<std::size_t> order(m);
      std::iota(order.begin(), order.end(), std::size_t{0});
      orders.shuffle(std::span<std::size_t>(order));
      std::vector<bool> received(m, false);
      for (WorkerId w : order) {
        received[w] = true;
        ASSERT_EQ(tracker.add(w), scheme.quorum_met(received))
            << gate_case.label;
      }
    }
  }
}

TEST(QuorumGate, GatedDecoderMatchesUngatedReference) {
  // 200 seeded arrival orders (a random number of stragglers never
  // arrive): the gated StreamingDecoder, with and without a decoding cache,
  // must decode at the same arrival as a reference probing every prefix,
  // with bit-identical coefficients.
  Rng orders(79);
  const auto cases = table2_cases();
  for (int trial = 0; trial < 200; ++trial) {
    const GateCase& gate_case = cases[static_cast<std::size_t>(trial) %
                                      cases.size()];
    const CodingScheme& scheme = *gate_case.scheme;
    const std::size_t m = scheme.num_workers();
    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), std::size_t{0});
    orders.shuffle(std::span<std::size_t>(order));
    order.resize(m - static_cast<std::size_t>(orders.uniform_int(0, 3)));

    std::optional<Vector> expected;
    std::size_t expected_at = 0;
    std::vector<bool> received(m, false);
    for (std::size_t i = 0; i < order.size() && !expected; ++i) {
      received[order[i]] = true;
      expected = scheme.decoding_coefficients(received);
      expected_at = i + 1;
    }

    DecodingCache cache(scheme);
    StreamingDecoder gated(scheme);
    StreamingDecoder cached(scheme, &cache);
    for (StreamingDecoder* decoder : {&gated, &cached}) {
      std::size_t decoded_at = 0;
      for (std::size_t i = 0; i < order.size() && !decoder->ready(); ++i)
        if (decoder->add_result(order[i], {})) decoded_at = i + 1;
      ASSERT_EQ(decoder->ready(), expected.has_value())
          << gate_case.label << " trial " << trial;
      if (!expected) continue;
      EXPECT_EQ(decoded_at, expected_at) << gate_case.label;
      const Vector& got = decoder->coefficients();
      ASSERT_EQ(got.size(), expected->size());
      for (std::size_t w = 0; w < m; ++w)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[w]),
                  std::bit_cast<std::uint64_t>((*expected)[w]))
            << gate_case.label << " worker " << w;
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
