// Binary-wide heap-allocation instrumentation for benches and tests.
//
// Including this header replaces the global replaceable allocation
// functions with malloc-backed versions that bump one relaxed counter, so a
// bench can report allocations-per-iteration and a test can pin a
// zero-allocation contract exactly. The nothrow forms (std::stable_sort's
// buffer) are replaced too, or a sanitizer would serve them from its own
// heap and flag the matching delete, which is ours.
//
// IMPORTANT: include from EXACTLY ONE translation unit of the instrumented
// binary (the replacement operators are deliberately non-inline — the
// standard forbids inline replacements — so a second including TU is a
// duplicate-symbol link error, never a silent half-instrumented binary).
// Never include it from library code.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace hgc::alloc_instrument {

inline std::atomic<std::size_t> g_allocations{0};

/// Total replaceable-new calls since process start.
inline std::size_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// One counted allocation; nullptr when malloc fails.
inline void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

}  // namespace hgc::alloc_instrument

// GCC's pairing heuristic flags malloc-backed replacement allocators even
// though new/delete are replaced as a consistent pair — silence it here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = hgc::alloc_instrument::counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = hgc::alloc_instrument::counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return hgc::alloc_instrument::counted_malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return hgc::alloc_instrument::counted_malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop
