#include "core/scheme_cache.hpp"

#include <bit>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hgc {

bool scheme_uses_construction_rng(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNaive:
    case SchemeKind::kFractionalRepetition:
      return false;
    case SchemeKind::kCyclic:
    case SchemeKind::kHeterAware:
    case SchemeKind::kGroupBased:
      return true;
  }
  throw InternalError("unhandled SchemeKind");
}

bool scheme_uses_throughputs(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNaive:
    case SchemeKind::kCyclic:
    case SchemeKind::kFractionalRepetition:
      return false;
    case SchemeKind::kHeterAware:
    case SchemeKind::kGroupBased:
      return true;
  }
  throw InternalError("unhandled SchemeKind");
}

std::size_t SchemeCache::KeyHash::operator()(const Key& key) const {
  // FNV-1a over the scalar fields and the throughput bit patterns (the key
  // stores bits, so hash and equality see the exact same representation).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(key.kind));
  mix(key.m);
  mix(key.k);
  mix(key.s);
  mix(key.seed);
  for (std::uint64_t bits : key.c_bits) mix(bits);
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const CodingScheme> SchemeCache::get_or_create(
    SchemeKind kind, const Throughputs& c, std::size_t k, std::size_t s,
    std::uint64_t construction_seed) {
  Key key;
  key.kind = kind;
  key.m = c.size();
  key.k = k;
  key.s = s;
  key.seed = scheme_uses_construction_rng(kind) ? construction_seed : 0;
  if (scheme_uses_throughputs(kind)) {
    key.c_bits.reserve(c.size());
    for (double ci : c) key.c_bits.push_back(std::bit_cast<std::uint64_t>(ci));
  }

  {
    std::shared_lock lock(mutex_);
    if (const auto it = map_.find(key); it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (obs::metrics_enabled()) {
        static const obs::Counter cache_hits =
            obs::Registry::global().counter("scheme_cache.hits");
        cache_hits.add();
      }
      return it->second;
    }
  }

  // Construct outside any lock — Alg. 1 / the group search is the expensive
  // part and must not serialize readers. Exactly mirrors run_experiment's
  // uncached path: a fresh Rng seeded with the construction seed.
  HGC_TRACE_SCOPE("scheme_construct", "cache",
                  static_cast<std::int64_t>(k));
  Rng construction_rng(construction_seed);
  std::shared_ptr<const CodingScheme> scheme =
      make_scheme(kind, c, k, s, construction_rng);
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled()) {
    static const obs::Counter cache_misses =
        obs::Registry::global().counter("scheme_cache.misses");
    cache_misses.add();
  }

  std::unique_lock lock(mutex_);
  // A racing thread may have inserted the same key first; keep its instance
  // so every caller shares one scheme.
  return map_.try_emplace(std::move(key), std::move(scheme)).first->second;
}

std::size_t SchemeCache::size() const {
  std::shared_lock lock(mutex_);
  return map_.size();
}

}  // namespace hgc
