// Tests for the baseline schemes (naive, cyclic, fractional repetition), the
// scheme factory, and the encode/combine gradient helpers.
#include <gtest/gtest.h>

#include "core/cyclic.hpp"
#include "core/fractional.hpp"
#include "core/naive.hpp"
#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

TEST(Naive, IdentityCodingMatrix) {
  NaiveScheme naive(4);
  EXPECT_EQ(naive.num_workers(), 4u);
  EXPECT_EQ(naive.num_partitions(), 4u);
  EXPECT_EQ(naive.stragglers_tolerated(), 0u);
  EXPECT_LT(
      Matrix::max_abs_diff(naive.coding_matrix(), Matrix::identity(4)), 1e-15);
  for (WorkerId w = 0; w < 4; ++w) EXPECT_EQ(naive.load(w), 1u);
}

TEST(Naive, NeedsEveryWorker) {
  NaiveScheme naive(3);
  std::vector<bool> received = {true, true, false};
  EXPECT_FALSE(naive.decoding_coefficients(received).has_value());
  received[2] = true;
  const auto a = naive.decoding_coefficients(received);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, Vector(3, 1.0));
}

TEST(Naive, QuorumIsAll) {
  NaiveScheme naive(5);
  ASSERT_EQ(naive.quorums().size(), 1u);
  EXPECT_TRUE(naive.quorums()[0].workers.empty());
  EXPECT_EQ(naive.quorums()[0].need, 5u);
}

TEST(Cyclic, UniformLoadsAndRobustness) {
  Rng rng(21);
  CyclicScheme cyclic(6, 2, rng);
  EXPECT_EQ(cyclic.num_partitions(), 6u);
  for (WorkerId w = 0; w < 6; ++w) EXPECT_EQ(cyclic.load(w), 3u);
  EXPECT_TRUE(satisfies_condition1(cyclic.coding_matrix(), 2));
}

TEST(Cyclic, DecodesWithAnyTwoMissing) {
  Rng rng(22);
  CyclicScheme cyclic(6, 2, rng);
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a + 1; b < 6; ++b) {
      std::vector<bool> received(6, true);
      received[a] = received[b] = false;
      const auto coeffs = cyclic.decoding_coefficients(received);
      ASSERT_TRUE(coeffs.has_value()) << a << "," << b;
      const Vector ab = cyclic.coding_matrix().apply_transpose(*coeffs);
      for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-8);
    }
}

TEST(Cyclic, RefusesTooManyMissing) {
  Rng rng(23);
  CyclicScheme cyclic(5, 1, rng);
  std::vector<bool> received(5, true);
  received[0] = received[1] = false;
  EXPECT_FALSE(cyclic.decoding_coefficients(received).has_value());
}

TEST(Fractional, BlockStructure) {
  FractionalRepetitionScheme frc(6, 1);  // 3 blocks of 2 workers
  ASSERT_EQ(frc.blocks().size(), 3u);
  for (const auto& block : frc.blocks()) EXPECT_EQ(block.size(), 2u);
  EXPECT_TRUE(satisfies_condition1(frc.coding_matrix(), 1));
}

TEST(Fractional, DecodesFromOnePerBlock) {
  FractionalRepetitionScheme frc(6, 1);
  // Knock out one worker in every block (3 > s stragglers!) — FRC still
  // decodes because each block keeps one replica. The quorum is 3, not 5.
  std::vector<bool> received = {true, false, false, true, true, false};
  const auto a = frc.decoding_coefficients(received);
  ASSERT_TRUE(a.has_value());
  const Vector ab = frc.coding_matrix().apply_transpose(*a);
  for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-12);
  ASSERT_EQ(frc.quorums().size(), 1u);
  EXPECT_TRUE(frc.quorums()[0].workers.empty());
  EXPECT_EQ(frc.quorums()[0].need, 3u);
}

TEST(Fractional, FailsWhenBlockWipedOut) {
  FractionalRepetitionScheme frc(6, 1);
  std::vector<bool> received = {false, false, true, true, true, true};
  EXPECT_FALSE(frc.decoding_coefficients(received).has_value());
}

TEST(Fractional, RequiresDivisibility) {
  EXPECT_THROW(FractionalRepetitionScheme(5, 1), std::invalid_argument);
  EXPECT_THROW(FractionalRepetitionScheme(6, 1, 7), std::invalid_argument);
  EXPECT_NO_THROW(FractionalRepetitionScheme(6, 1, 9));
}

TEST(Fractional, CustomPartitionCount) {
  FractionalRepetitionScheme frc(4, 1, 8);  // 2 blocks, stripes of 4
  EXPECT_EQ(frc.num_partitions(), 8u);
  for (WorkerId w = 0; w < 4; ++w) EXPECT_EQ(frc.load(w), 4u);
  EXPECT_TRUE(satisfies_condition1(frc.coding_matrix(), 1));
}

TEST(Factory, ParsesNames) {
  EXPECT_EQ(parse_scheme_kind("naive"), SchemeKind::kNaive);
  EXPECT_EQ(parse_scheme_kind("cyclic"), SchemeKind::kCyclic);
  EXPECT_EQ(parse_scheme_kind("heter"), SchemeKind::kHeterAware);
  EXPECT_EQ(parse_scheme_kind("heter-aware"), SchemeKind::kHeterAware);
  EXPECT_EQ(parse_scheme_kind("group"), SchemeKind::kGroupBased);
  EXPECT_EQ(parse_scheme_kind("fractional"),
            SchemeKind::kFractionalRepetition);
  EXPECT_THROW(parse_scheme_kind("bogus"), std::invalid_argument);
}

TEST(Factory, RoundTripNames) {
  for (SchemeKind kind : paper_schemes())
    EXPECT_EQ(parse_scheme_kind(to_string(kind)), kind);
}

TEST(Factory, BuildsEveryKind) {
  Rng rng(24);
  const Throughputs c = {2, 2, 4, 4, 8, 8};
  for (SchemeKind kind :
       {SchemeKind::kNaive, SchemeKind::kCyclic,
        SchemeKind::kFractionalRepetition, SchemeKind::kHeterAware,
        SchemeKind::kGroupBased}) {
    const auto scheme = make_scheme(kind, c, 12, 1, rng);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->num_workers(), 6u);
    EXPECT_EQ(to_string(kind), scheme->name());
  }
}

TEST(EncodeCombine, RoundTripsAggregateGradient) {
  Rng rng(25);
  const Throughputs c = {1, 2, 3, 4, 4};
  const auto scheme = make_scheme(SchemeKind::kHeterAware, c, 7, 1, rng);
  // Synthetic per-partition "gradients" of dimension 3.
  std::vector<Vector> grads(7);
  Vector expected(3, 0.0);
  for (std::size_t p = 0; p < 7; ++p) {
    grads[p] = {rng.normal(), rng.normal(), rng.normal()};
    axpy(1.0, grads[p], expected);
  }
  std::vector<Vector> coded(5);
  for (WorkerId w = 0; w < 5; ++w)
    coded[w] = encode_gradient(*scheme, w, grads);

  std::vector<bool> received(5, true);
  received[2] = false;  // one straggler
  coded[2].clear();
  const auto a = scheme->decoding_coefficients(received);
  ASSERT_TRUE(a.has_value());
  const Vector aggregate = combine_coded_gradients(*a, coded);
  ASSERT_EQ(aggregate.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(aggregate[i], expected[i], 1e-8);
}

TEST(EncodeCombine, RejectsMissingResultWithNonzeroCoefficient) {
  const Vector coefficients = {1.0, 1.0};
  std::vector<Vector> coded(2);
  coded[0] = {1.0};
  EXPECT_THROW(combine_coded_gradients(coefficients, coded),
               std::invalid_argument);
}

TEST(CodingScheme, RejectsSupportMismatch) {
  // Matrix support {0} but declared assignment {0,1}: constructor throws.
  class Broken : public CodingScheme {
   public:
    Broken() : CodingScheme(Matrix{{1.0, 0.0}}, {{0, 1}}, 0, {{{}, 1}}) {}
    std::string name() const override { return "broken"; }
    std::optional<Vector> decoding_coefficients(
        const std::vector<bool>&) const override {
      return std::nullopt;
    }
  };
  EXPECT_THROW(Broken{}, std::invalid_argument);
}

TEST(CodingScheme, RejectsMalformedQuorums) {
  class WithQuorums : public CodingScheme {
   public:
    explicit WithQuorums(std::vector<DecodeQuorum> quorums)
        : CodingScheme(Matrix{{1.0}, {1.0}}, {{0}, {0}}, 1,
                       std::move(quorums)) {}
    std::string name() const override { return "with-quorums"; }
    std::optional<Vector> decoding_coefficients(
        const std::vector<bool>&) const override {
      return std::nullopt;
    }
  };
  EXPECT_NO_THROW(WithQuorums({{{}, 1}, {{0, 1}, 2}}));
  EXPECT_THROW(WithQuorums({}), std::invalid_argument);
  EXPECT_THROW(WithQuorums({{{}, 0}}), std::invalid_argument);
  EXPECT_THROW(WithQuorums({{{0, 2}, 1}}), std::invalid_argument);
}

}  // namespace
}  // namespace hgc
