#include "core/heter_aware.hpp"

#include "core/allocation.hpp"

namespace hgc {
namespace {

Alg1Build build_from_throughputs(const Throughputs& c, std::size_t k,
                                 std::size_t s, Rng& rng) {
  const auto counts = heter_aware_counts(c, k, s);
  const auto assignment = cyclic_assignment(counts, k);
  return build_alg1(assignment, k, s, rng);
}

}  // namespace

HeterAwareScheme::HeterAwareScheme(Alg1Build build, std::size_t s)
    // The single-argument base constructor derives the assignment straight
    // from the sparse row structure — the old O(m·k) assignment_from_matrix
    // dense scan is gone. All active workers minus s must respond; idle
    // (zero-load) workers never send anything, so they are not counted.
    : CodingScheme(std::move(build.b), s,
                   {{{}, build.code.workers().size() - s}}),
      code_(std::move(build.code)) {}

HeterAwareScheme::HeterAwareScheme(const Throughputs& c, std::size_t k,
                                   std::size_t s, Rng& rng)
    : HeterAwareScheme(build_from_throughputs(c, k, s, rng), s) {}

std::optional<Vector> HeterAwareScheme::decoding_coefficients(
    const std::vector<bool>& received) const {
  if (!quorum_met(received)) return std::nullopt;
  if (auto fast = code_.decode(received, num_workers())) return fast;
  return generic_decode(received);
}

}  // namespace hgc
