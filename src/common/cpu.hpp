// Runtime CPU feature probe shared by the SIMD kernel registries: the
// int8 code-domain binary MVM (tensor/gemm_binary.hpp, DESIGN.md §8), the
// PLA snap (encoding/pla.cpp) and the batched Box–Muller transform
// (common/rng.hpp, DESIGN.md §12). Each registry lists the entries this
// CPU can run and dispatches the last one; GBO_FORCE_SCALAR_KERNELS=1 pins
// every registry to its scalar entry.
#pragma once

#include <string>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GBO_X86 1
#endif

namespace gbo {

/// ISA extensions that are both reported by CPUID and enabled by the OS
/// (XCR0). All false off x86.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vnni = false;  // CPUID.7.0:ECX[11], vpdpbusd
};

/// Probed once per process.
const CpuFeatures& cpu();

/// True when GBO_FORCE_SCALAR_KERNELS is set to anything but "" or "0".
bool force_scalar_kernels();

/// The detected features as a space-separated string, e.g.
/// "avx2 fma avx512f avx512bw avx512vnni" ("neon" on ARM NEON builds).
std::string cpu_feature_string();

}  // namespace gbo
