#include "util/cpu.hpp"

namespace hgc::util {

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace hgc::util
