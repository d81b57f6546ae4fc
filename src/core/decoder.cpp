#include "core/decoder.hpp"

#include "core/robustness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace hgc {

std::optional<Vector> solve_decoding_coefficients(
    const CodingScheme& scheme, const std::vector<bool>& received) {
  if (!obs::metrics_enabled() && !obs::trace_enabled())
    return scheme.decoding_coefficients(received);

  HGC_TRACE_SCOPE("decode_solve", "decode");
  if (!obs::metrics_enabled()) return scheme.decoding_coefficients(received);

  static const obs::Counter solves =
      obs::Registry::global().counter("decode.solves");
  // Log-spaced upper-inclusive bounds bracketing the µs-to-ms solves the
  // coding-matrix sizes produce; anything slower lands in overflow.
  static const obs::Histogram solve_seconds =
      obs::Registry::global().histogram(
          "decode.solve_seconds",
          {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  solves.add();
  Stopwatch timer;
  auto coefficients = scheme.decoding_coefficients(received);
  solve_seconds.observe(timer.seconds());
  return coefficients;
}

std::vector<DecodingRow> build_decoding_matrix(const CodingScheme& scheme) {
  const std::size_t m = scheme.num_workers();
  const std::size_t s = scheme.stragglers_tolerated();
  std::vector<DecodingRow> rows;
  for_each_straggler_pattern(m, s, [&](const StragglerSet& pattern) {
    std::vector<bool> received(m, true);
    for (WorkerId w : pattern) received[w] = false;
    // Workers with no data never respond regardless of the pattern.
    for (std::size_t w = 0; w < m; ++w)
      if (scheme.load(w) == 0) received[w] = false;
    auto coefficients = scheme.decoding_coefficients(received);
    if (!coefficients) {
      // s = 0 enumerates one empty pattern; naming "the worker starting the
      // pattern" would print m, which is not a worker id.
      if (pattern.empty())
        throw DecodeError(
            "scheme cannot decode even with every data-holding worker "
            "present (empty straggler pattern)");
      throw DecodeError("scheme is not robust to pattern starting at worker " +
                        std::to_string(pattern.front()));
    }
    rows.push_back({pattern, std::move(*coefficients)});
    return true;
  });
  return rows;
}

QuorumTracker::QuorumTracker(const CodingScheme& scheme)
    : scheme_(scheme), counts_(scheme.quorums().size(), 0) {}

bool QuorumTracker::add(WorkerId w) {
  const auto& quorums = scheme_.quorums();
  const auto bump = [&](std::uint32_t q) {
    if (++counts_[q] >= quorums[q].need) met_ = true;
  };
  for (std::uint32_t q : scheme_.global_quorums()) bump(q);
  for (std::uint32_t q : scheme_.quorums_of(w)) bump(q);
  return met_;
}

void QuorumTracker::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  met_ = false;
}

StreamingDecoder::StreamingDecoder(const CodingScheme& scheme,
                                   DecodingCache* cache)
    : scheme_(scheme),
      cache_(cache),
      quorums_(scheme),
      received_(scheme.num_workers(), false),
      coded_(scheme.num_workers()) {
  HGC_REQUIRE(!cache_ || &cache_->scheme() == &scheme_,
              "decoding cache must wrap the decoder's scheme");
}

bool StreamingDecoder::add_result(WorkerId w, Vector coded_gradient) {
  HGC_REQUIRE(w < received_.size(), "worker id out of range");
  HGC_REQUIRE(!received_[w], "duplicate result from worker");
  received_[w] = true;
  coded_[w] = std::move(coded_gradient);
  ++received_count_;
  if (coefficients_) return false;  // already decodable, extra result unused
  if (!quorums_.add(w)) return false;  // no decode can succeed yet
  coefficients_ = cache_ ? cache_->decode(received_)
                         : solve_decoding_coefficients(scheme_, received_);
  return coefficients_.has_value();
}

Vector StreamingDecoder::aggregate() const {
  if (!coefficients_)
    throw DecodeError("aggregate requested before the code is decodable");
  return combine_coded_gradients(*coefficients_, coded_);
}

const Vector& StreamingDecoder::coefficients() const {
  if (!coefficients_)
    throw DecodeError("coefficients requested before the code is decodable");
  return *coefficients_;
}

std::vector<WorkerId> StreamingDecoder::unused_workers() const {
  std::vector<WorkerId> unused;
  for (std::size_t w = 0; w < received_.size(); ++w) {
    const bool used =
        coefficients_ && (*coefficients_)[w] != 0.0;
    if (received_[w] && !used) unused.push_back(w);
  }
  return unused;
}

void StreamingDecoder::reset() {
  std::fill(received_.begin(), received_.end(), false);
  for (auto& v : coded_) v.clear();
  received_count_ = 0;
  coefficients_.reset();
  quorums_.reset();
}

}  // namespace hgc
