#include "core/cyclic.hpp"

#include "core/allocation.hpp"

namespace hgc {

CyclicScheme::CyclicScheme(Alg1Build build, std::size_t s)
    : CodingScheme(build.b, cyclic_scheme_assignment(build.b.rows(), s), s,
                   {{{}, build.b.rows() - s}}),
      code_(std::move(build.code)) {}

CyclicScheme::CyclicScheme(std::size_t m, std::size_t s, Rng& rng)
    : CyclicScheme(build_alg1(cyclic_scheme_assignment(m, s), m, s, rng), s) {}

std::optional<Vector> CyclicScheme::decoding_coefficients(
    const std::vector<bool>& received) const {
  if (!quorum_met(received)) return std::nullopt;
  if (auto fast = code_.decode(received, num_workers())) return fast;
  return generic_decode(received);
}

}  // namespace hgc
