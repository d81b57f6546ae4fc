// The cyclic repetition scheme of Tandon et al. [12] — the paper's main
// baseline. Uniform allocation: k = m partitions, every worker holds exactly
// s+1 of them in cyclic order, regardless of worker throughput. Construction
// and decoding reuse Alg. 1 (the original paper's construction is the
// homogeneous special case).
#pragma once

#include "core/alg1.hpp"
#include "core/coding_scheme.hpp"
#include "util/rng.hpp"

namespace hgc {

/// Cyclic gradient coding [12]: heterogeneity-blind baseline.
class CyclicScheme : public CodingScheme {
 public:
  /// m workers, k = m partitions, tolerance s (requires s < m).
  CyclicScheme(std::size_t m, std::size_t s, Rng& rng);

  std::string name() const override { return "cyclic"; }

  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const override;

 private:
  CyclicScheme(Alg1Build build, std::size_t s);

  Alg1Code code_;
};

}  // namespace hgc
