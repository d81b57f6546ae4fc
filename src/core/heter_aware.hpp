// The paper's first contribution (Section IV): heterogeneity-aware gradient
// coding. Data partitions are allocated proportionally to worker throughput
// (Eq. 5, cyclic placement Eq. 6) and the coding matrix is built by Alg. 1,
// which makes the code robust to any s stragglers (Theorem 4) and optimal in
// worst-case iteration time, T(B) = (s+1)k / Σc (Theorem 5).
#pragma once

#include "core/alg1.hpp"
#include "core/coding_scheme.hpp"
#include "util/rng.hpp"

namespace hgc {

/// Heter-aware gradient coding scheme (Alg. 1 over Eq. 5/6 allocation).
class HeterAwareScheme : public CodingScheme {
 public:
  /// Build a code for workers with (estimated) throughputs `c`, k data
  /// partitions and tolerance for any s stragglers. Randomness for the
  /// auxiliary matrix C comes from `rng`.
  HeterAwareScheme(const Throughputs& c, std::size_t k, std::size_t s,
                   Rng& rng);

  std::string name() const override { return "heter-aware"; }

  /// Fast O(s³) decode via the stored C (null-space on straggler columns);
  /// falls back to the generic least-squares path only if C is degenerate.
  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const override;

  /// The auxiliary random matrix (exposed for tests of properties P1/P2).
  const Alg1Code& code() const { return code_; }

 private:
  HeterAwareScheme(Alg1Build build, std::size_t s);

  Alg1Code code_;
};

}  // namespace hgc
