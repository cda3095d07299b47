// Binary-weight MVM as an integer dot over level codes (DESIGN.md §8).
//
// The paper's networks are binary-weight: after binarization a weight row is
// a sign vector s ∈ {±1}^k, and every 9-level QuantTanh activation is
// a = (2l - 8) / 8 for a level code l ∈ [0, 8] (quant/act_quant.hpp). The
// crossbar drives level l as a thermometer train of 8 pulses, but the MVM
// needs no bit-planes:
//
//   Σ_p s_p · a_p = (2·D - 8·S) / 8,   D = Σ_p s_p · l_p,   S = Σ_p s_p
//
// D is an int8 dot product (codes times ±1 signs) and S a per-weight-row
// constant, so C[i, j] = float(2·D_ij - 8·S_j) · 0.125f. Both are exact
// integers with |2D - 8S| <= 8k < 2^24, so the conversion and the power-of-
// two multiply are exact too. The float kernels compute the same value
// exactly (every product is a sign flip of a multiple of 1/4, every partial
// sum a multiple of 1/4 far below 2^24), so this route is BITWISE equal to
// the float route whenever the inputs lie on the 9-level grid; the float
// route stays in-tree as the oracle, and the quant layers fall back to it
// for off-grid inputs (raw images, non-dyadic PLA).
//
// Kernels are selected once per process from a runtime CPUID-probed
// registry (scalar / AVX2 vpmaddubsw+vpmaddwd / AVX-512 VNNI vpdpbusd); each
// entry also carries the validating float→code encoder. Every variant sums
// the same integers and evaluates the same exact grid predicate, so the
// kernel choice can never change an output bit. GBO_FORCE_SCALAR_KERNELS=1
// pins the scalar entry (the CI fallback leg).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gbo::gemm {

/// Output columns per packed sign panel (one ZMM of int32 lanes).
inline constexpr std::size_t kBinaryPanelCols = 16;

/// The signs of 16 weight rows over 4 consecutive lanes — one k-quad of a
/// panel, the unit a vpdpbusd consumes: byte 4·c + r is the sign of panel
/// column c at lane 4q + r. 64-byte aligned so no load splits a line.
struct alignas(64) SignQuad {
  std::int8_t s[4 * kBinaryPanelCols];
};

/// A binarized weight [n, k] packed once per weight version: int8 ±1 signs
/// in panels of 16 output rows, `B[j, p] >= 0` → +1 (the quant::binarize
/// convention), at quads[(j / 16)·quads_per_panel() + p / 4].s[4·(j % 16)
/// + p % 4]; lanes past k and columns past n hold 0. sums[j] = S_j, the row
/// sum of the signs (0 in padding columns).
struct PackedBinaryB {
  std::vector<SignQuad> quads;
  std::vector<std::int32_t> sums;  // [panels() · 16]
  std::size_t n = 0, k = 0;
  std::size_t quads_per_panel() const { return (k + 3) / 4; }
  std::size_t panels() const {
    return (n + kBinaryPanelCols - 1) / kBinaryPanelCols;
  }
  bool empty() const { return quads.empty(); }
};

/// Packs a row-major weight [n, k] (ldb). Counts one binary weight pack
/// (binary_pack_count); degenerate shapes yield an empty handle.
PackedBinaryB prepack_binary_b_t(std::size_t n, std::size_t k, const float* B,
                                 std::size_t ldb);

/// Process-wide count of binary weight packs (prepack_binary_b_t). Relaxed
/// atomic; the serving bench diffs it across a steady-state run to prove the
/// version-stamped caches amortized binary packing to warmup (A-side code
/// passes are per-request by design and not counted).
std::uint64_t binary_pack_count();

/// The route's validating pass: codes[i] = level of x[i] (0..8) for every
/// i < n, or false — codes then unspecified — if any value is off the grid.
/// The level codes are the MVM's A operand: QuantLinear runs it over its
/// activation matrix, QuantConv2d over its NCHW input before the patch
/// gather (zero padding is level 4), so each element is validated once.
bool binary_grid_codes(const float* x, std::size_t n, std::uint8_t* codes);

/// Where gemm_binary stores output element (i, j):
///   c + (i / group_rows)·group_stride + (i % group_rows)·row_stride
///     + j·col_stride.
struct BinaryOut {
  float* c = nullptr;
  std::size_t row_stride = 0, col_stride = 1;
  std::size_t group_rows = SIZE_MAX, group_stride = 0;

  /// Row-major C[m, n] with leading dimension ldc.
  static BinaryOut rows(float* c, std::size_t ldc) {
    return {c, ldc, 1, SIZE_MAX, 0};
  }
  /// NCHW [batch, channels, pixels]: row i is pixel i % pixels of image
  /// i / pixels, column j is channel j — the conv route's output, stored
  /// without a transpose pass.
  static BinaryOut nchw(float* c, std::size_t channels, std::size_t pixels) {
    return {c, 1, pixels, pixels, channels * pixels};
  }
  float* row(std::size_t i) const {
    return c + (i / group_rows) * group_stride + (i % group_rows) * row_stride;
  }
};

/// One registry entry. mvm_rows computes rows [lo, hi) of the MVM: for
/// every weight row j < B.n it stores float(2·D_ij - 8·S_j) · 0.125f at
/// out(i, j), D_ij = Σ_{p<k} sign(B[j, p]) · codes[i·lda + p]. It reads
/// exactly k code bytes per row, nothing past them. grid_codes is the
/// validating float→code pass of binary_grid_codes (false on the first
/// off-grid value, codes then unspecified; nothing is written past n).
/// Every variant evaluates the exact grid predicate of DESIGN.md §8 per
/// lane, so the entries are bitwise interchangeable, accept/reject
/// included.
struct BinaryKernel {
  const char* name;
  void (*mvm_rows)(const std::uint8_t* codes, std::size_t lda,
                   std::size_t lo, std::size_t hi, const PackedBinaryB& B,
                   const BinaryOut& out);
  bool (*grid_codes)(const float* x, std::size_t n, std::uint8_t* codes);
};

/// The entry selected once per process: best CPUID-supported ISA, or the
/// scalar entry under GBO_FORCE_SCALAR_KERNELS=1.
const BinaryKernel& binary_kernel();

/// The always-available scalar entry (the in-tree reference the dispatched
/// entry is gated against).
const BinaryKernel& binary_kernel_scalar();

/// Every registry entry this CPU can run, scalar first and the dispatch
/// choice (absent GBO_FORCE_SCALAR_KERNELS) last; tests gate each of them
/// against the scalar reference.
const std::vector<const BinaryKernel*>& binary_kernels();

/// Name of the dispatched entry ("scalar" / "avx2" / "avx512_vnni") —
/// recorded in the bench JSON so CI artifacts document the ISA actually
/// exercised.
const char* binary_kernel_name();

/// Runtime-detected CPU features relevant to the kernel registries
/// (common/cpu.hpp: CPUID on x86, compile-time flags elsewhere), e.g.
/// "avx2 fma avx512f avx512bw avx512vnni".
std::string cpu_features();

/// The binary MVM of m rows of level codes (row i at codes + i·lda, k =
/// B.k bytes each, every code <= 8) against packed signs, stored through
/// `out`. Runs the dispatched entry; bitwise equal to the float A·Bᵀ
/// kernels over the same on-grid operands (the §8 contract) and to every
/// other registry entry. Threaded over row tiles, deterministic at any
/// thread count (pure integer reduction per element).
void gemm_binary(std::size_t m, const std::uint8_t* codes, std::size_t lda,
                 const PackedBinaryB& B, const BinaryOut& out);

/// Same, with an explicit registry entry (tests gate forced-scalar vs
/// best-ISA bitwise equality through this).
void gemm_binary_with(const BinaryKernel& kern, std::size_t m,
                      const std::uint8_t* codes, std::size_t lda,
                      const PackedBinaryB& B, const BinaryOut& out);

/// Process-wide count of gemm_binary dispatches; the benches diff it to
/// prove the quant layers actually took the binary route.
std::uint64_t binary_mvm_count();

}  // namespace gbo::gemm
