#include "common/cpu.hpp"

#include <cstdint>
#include <cstdlib>

#if defined(GBO_X86)
#include <cpuid.h>
#endif

namespace gbo {
namespace {

// Raw CPUID + XGETBV rather than __builtin_cpu_supports: not every
// toolchain this repo supports recognizes every feature string, and the
// OS-enablement half (XCR0) must be checked explicitly anyway.
CpuFeatures probe_cpu() {
  CpuFeatures f;
#if defined(GBO_X86)
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  const bool osxsave = (ecx >> 27) & 1;  // OS uses XSAVE: XCR0 is readable
  if (!osxsave) return f;
  const bool fma = (ecx >> 12) & 1;
  std::uint32_t lo, hi;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  const std::uint64_t xcr0 = (static_cast<std::uint64_t>(hi) << 32) | lo;
  const bool os_avx = (xcr0 & 0x6) == 0x6;       // XMM + YMM state saved
  const bool os_avx512 = (xcr0 & 0xe6) == 0xe6;  // + opmask, ZMM hi state
  f.fma = os_avx && fma;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = os_avx && ((ebx >> 5) & 1);
    f.avx512f = os_avx512 && ((ebx >> 16) & 1);
    f.avx512bw = f.avx512f && ((ebx >> 30) & 1);
    f.avx512vnni = f.avx512f && ((ecx >> 11) & 1);
  }
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu() {
  static const CpuFeatures f = probe_cpu();
  return f;
}

bool force_scalar_kernels() {
  const char* e = std::getenv("GBO_FORCE_SCALAR_KERNELS");
  return e != nullptr && e[0] != '\0' && e[0] != '0';
}

std::string cpu_feature_string() {
  std::string s;
  if (cpu().avx2) s += "avx2 ";
  if (cpu().fma) s += "fma ";
  if (cpu().avx512f) s += "avx512f ";
  if (cpu().avx512bw) s += "avx512bw ";
  if (cpu().avx512vnni) s += "avx512vnni ";
#if defined(__ARM_NEON)
  s += "neon ";
#endif
  if (!s.empty()) s.pop_back();
  return s;
}

}  // namespace gbo
