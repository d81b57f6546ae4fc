// Host CPU feature detection for the kernel backend dispatch.
//
// One query per ISA extension the kernel layer can use, answered at runtime
// (cpuid on x86). Kept in util/ so the linalg layer's backend selection has
// no inline asm or compiler-builtin calls of its own.
#pragma once

namespace hgc::util {

/// True when the host CPU executes AVX2 instructions (x86 cpuid; always
/// false on other architectures).
bool cpu_supports_avx2() noexcept;

}  // namespace hgc::util
