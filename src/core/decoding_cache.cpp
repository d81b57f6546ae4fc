#include "core/decoding_cache.hpp"

#include "core/decoder.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace hgc {

DecodingCache::DecodingCache(const CodingScheme& scheme, std::size_t capacity)
    : scheme_(scheme), capacity_(capacity) {
  HGC_REQUIRE(capacity > 0, "cache capacity must be positive");
}

std::vector<std::uint64_t> DecodingCache::pack(
    const std::vector<bool>& received) {
  std::vector<std::uint64_t> words((received.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < received.size(); ++i)
    if (received[i]) words[i / 64] |= std::uint64_t{1} << (i % 64);
  return words;
}

std::size_t DecodingCache::KeyHash::operator()(
    const std::vector<std::uint64_t>& key) const {
  // FNV-1a over the words.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t word : key) {
    h ^= word;
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

std::optional<Vector> DecodingCache::decode(
    const std::vector<bool>& received) {
  HGC_REQUIRE(received.size() == scheme_.num_workers(),
              "received flags must have one entry per worker");
  auto key = pack(received);
  if (const auto it = index_.find(key); it != index_.end()) {
    ++hits_;
    if (obs::metrics_enabled()) {
      static const obs::Counter cache_hits =
          obs::Registry::global().counter("decode_cache.hits");
      cache_hits.add();
    }
    entries_.splice(entries_.begin(), entries_, it->second);  // bump to MRU
    return it->second->coefficients;
  }

  ++misses_;
  if (obs::metrics_enabled()) {
    static const obs::Counter cache_misses =
        obs::Registry::global().counter("decode_cache.misses");
    cache_misses.add();
  }
  auto coefficients = solve_decoding_coefficients(scheme_, received);
  entries_.push_front({key, coefficients});
  index_[std::move(key)] = entries_.begin();
  if (entries_.size() > capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
  }
  return coefficients;
}

}  // namespace hgc
