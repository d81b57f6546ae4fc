// Decode oracle: the aggregate the master reconstructs must equal the exact
// sum of the partition gradients, within a stated RELATIVE error.
//
// Each case draws random partition gradients g_j, encodes every worker's
// coded gradient (encode_gradient), decodes a straggler pattern
// (decoding_coefficients) and recombines (combine_coded_gradients). The
// check is ‖decoded − Σ g_j‖ / ‖Σ g_j‖ ≤ 1e-9. The largest |a_w| of the
// decoding vector is printed with every failure: it is the conditioning
// signal, since the error of the recombination grows with it. (A probe over
// heter-aware, group-based and cyclic at m = 24 … 10,000 saw a worst error
// of 7.2e-13 and a largest ‖a‖∞ of 228, heter-aware at 10,000 workers.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "linalg/matrix.hpp"
#include "linalg_reference.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

constexpr double kRelativeErrorBound = 1e-9;
constexpr std::size_t kGradientDim = 4;

/// Decode `scheme` under up to `max_patterns` patterns of exactly
/// `stragglers` stragglers (exhaustive when C(m, stragglers) fits the budget,
/// seeded samples otherwise) plus the straggler-free pattern, and check each
/// aggregate against the exact Σ g_j. Returns the number of patterns decoded.
std::size_t check_decodes(const CodingScheme& scheme, std::size_t stragglers,
                          std::size_t max_patterns, std::uint64_t seed,
                          const std::string& label) {
  const std::size_t m = scheme.num_workers();
  const std::size_t k = scheme.num_partitions();
  Rng rng(seed);
  std::vector<Vector> gradients(k, Vector(kGradientDim));
  Vector exact(kGradientDim, 0.0);
  for (Vector& g : gradients)
    for (std::size_t i = 0; i < kGradientDim; ++i) {
      g[i] = rng.normal();
      exact[i] += g[i];
    }
  std::vector<Vector> coded(m);
  for (WorkerId w = 0; w < m; ++w)
    coded[w] = encode_gradient(scheme, w, gradients);

  std::size_t decoded_patterns = 0;
  const auto check = [&](const StragglerSet& pattern) {
    std::vector<bool> received(m, true);
    for (WorkerId w : pattern) received[w] = false;
    std::ostringstream where;
    where << label << ", stragglers {";
    for (WorkerId w : pattern) where << ' ' << w;
    where << " }";

    const auto a = scheme.decoding_coefficients(received);
    EXPECT_TRUE(a.has_value()) << where.str() << ": not decodable";
    if (!a) return false;
    double a_inf = 0.0;
    for (WorkerId w = 0; w < m; ++w) {
      a_inf = std::max(a_inf, std::abs((*a)[w]));
      EXPECT_TRUE(received[w] || (*a)[w] == 0.0)
          << where.str() << ": coefficient on straggler " << w;
    }
    const Vector decoded = combine_coded_gradients(*a, coded);
    EXPECT_EQ(decoded.size(), kGradientDim) << where.str();
    if (decoded.size() != kGradientDim) return false;
    Vector diff = decoded;
    axpy(-1.0, exact, diff);
    const double error = ref::norm2(diff) / ref::norm2(exact);
    EXPECT_LE(error, kRelativeErrorBound)
        << where.str() << ": relative error " << error
        << ", ‖a‖∞ = " << a_inf;
    ++decoded_patterns;
    return !::testing::Test::HasFailure();
  };

  check(StragglerSet{});
  if (stragglers > 0)
    sample_straggler_patterns(m, stragglers, max_patterns, seed + 1, check);
  return decoded_patterns;
}

std::vector<SchemeKind> all_schemes() {
  return {SchemeKind::kNaive, SchemeKind::kCyclic,
          SchemeKind::kFractionalRepetition, SchemeKind::kHeterAware,
          SchemeKind::kGroupBased};
}

TEST(DecodeOracle, TableTwoClustersAllSchemes) {
  std::size_t cases = 0;
  for (const Cluster& cluster : paper_clusters()) {
    for (std::size_t s : {1u, 2u}) {
      const std::size_t k = exact_partition_count(cluster, s);
      for (SchemeKind kind : all_schemes()) {
        Rng rng(900 + s);
        std::unique_ptr<CodingScheme> scheme;
        try {
          scheme = make_scheme(kind, cluster.throughputs(), k, s, rng);
        } catch (const std::invalid_argument&) {
          continue;  // e.g. fractional repetition needs (s+1) | m
        }
        const std::string label = cluster.name() + " s=" +
                                  std::to_string(s) + " " + to_string(kind);
        EXPECT_GT(check_decodes(*scheme, scheme->stragglers_tolerated(), 200,
                                1000 + cases, label),
                  0u)
            << label;
        ++cases;
        if (HasFailure()) return;
      }
    }
  }
  // Naive, cyclic, heter-aware and group-based build on every cluster.
  EXPECT_GE(cases, 4u * 4u * 2u);
}

TEST(DecodeOracle, SampledPatternsAtScale) {
  for (std::size_t m : {1000u, 10000u}) {
    const Cluster cluster = scale_cluster(m);
    for (SchemeKind kind : {SchemeKind::kHeterAware, SchemeKind::kGroupBased,
                            SchemeKind::kCyclic}) {
      Rng rng(77);
      const auto scheme =
          make_scheme(kind, cluster.throughputs(), 2 * m, 2, rng);
      const std::string label = cluster.name() + " s=2 " + to_string(kind);
      EXPECT_EQ(check_decodes(*scheme, 2, 20, m, label), 21u) << label;
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace hgc
