// Bit-packed XNOR/popcount kernels for the binary-quantized MVM
// (DESIGN.md §8).
//
// The paper's networks are binary-weight: after binarization a weight row is
// a sign vector, and the 9-level QuantTanh activations decompose into 8
// thermometer bit-planes (encoding/thermometer.hpp: level l of the 9-level
// quantizer means planes 0..l-1 carry a +1 pulse, the rest -1). Packing both
// sides into 64-bit words turns the MVM into XOR + popcount:
//
//   plane dot:  d_t = k - 2·popcount(a_t XOR w)      (±1 dot over k bits)
//   recombine:  y   = (Σ_t d_t) / 8 = (8k - 2P) / 8,  P = Σ_t popcount
//
// Because every activation is a multiple of 1/4 in [-1, 1] and the weights
// are ±1, the float kernels' products are exact sign flips and all partial
// sums are multiples of 1/4 far below 2^24 — so the float path computes the
// same integer-valued accumulator exactly, at any blocking or thread count.
// (8k - 2P) / 8 is likewise exact (an integer times 0.125f). The binary path
// is therefore BITWISE equal to the float path whenever the inputs lie on
// the 9-level grid; the float route stays in-tree as the oracle, and the
// quant layers fall back to it for off-grid inputs (raw images, PLA
// re-quantized activations).
//
// Micro-kernels are selected once per process from a runtime CPUID-probed
// registry (scalar / AVX2 nibble-LUT / AVX-512 VPOPCNTDQ with masked edge
// tiles / NEON); every variant sums the same integer popcounts and encodes
// activations with the same exact per-lane grid predicate, so the kernel
// choice can never change an output bit. GBO_FORCE_SCALAR_KERNELS=1 pins the
// scalar kernel (the CI fallback leg).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gbo::gemm {

/// Thermometer bit-planes per activation: 8 pulses encode the 9-level
/// QuantTanh grid (quant/act_quant.hpp), values (2l - 8) / 8, l in [0, 8].
inline constexpr std::size_t kBinaryPlanes = 8;

/// 64-bit words covering k lanes; padding bits are zero on BOTH operands,
/// so they XOR to zero and never reach the popcount.
inline std::size_t binary_words(std::size_t k) { return (k + 63) / 64; }

/// Packed sign words of a binarized weight [n, k] (transposed storage, the
/// A·Bᵀ weight layout): row j's bit p is `B[j, p] >= 0` — the exact
/// convention of quant::binarize — at words[j·kw + p/64], bit p%64.
struct PackedBinaryB {
  std::vector<std::uint64_t> words;  // [n][kw]
  std::size_t n = 0, k = 0, kw = 0;
  bool empty() const { return words.empty(); }
};

/// Packs a row-major weight [n, k] (ldb) into sign words. Counts one binary
/// weight pack (binary_pack_count); degenerate shapes yield an empty handle.
PackedBinaryB prepack_binary_b_t(std::size_t n, std::size_t k, const float* B,
                                 std::size_t ldb);

/// Process-wide count of binary weight packs (prepack_binary_b_t). Relaxed
/// atomic; the serving bench diffs it across a steady-state run to prove the
/// version-stamped caches amortized binary packing to warmup (A-side
/// activation encodes are per-request by design and not counted).
std::uint64_t binary_pack_count();

/// Words of A-side scratch for an [m, k] activation block: m rows of
/// kBinaryPlanes bit-sliced planes, kw words each.
inline std::size_t packed_binary_a_words(std::size_t m, std::size_t k) {
  return m * kBinaryPlanes * binary_words(k);
}

/// Encodes A[m, k] (lda) into thermometer bit-planes: row i's plane t at
/// dst[(i·kBinaryPlanes + t)·kw], bit p set iff t < level(A[i, p]). Returns
/// false — dst contents then unspecified — if any value is off the 9-level
/// grid; this validate+encode is the quant linear layer's route dispatch.
/// Runs the dispatched registry encoder, grid_codes then encode_codes_row
/// per row.
bool pack_binary_a(std::size_t m, std::size_t k, const float* A,
                   std::size_t lda, std::uint64_t* dst);

/// The conv route's validating pass: codes[i] = level of x[i] (0..8) for
/// every i < n, or false — codes then unspecified — if any value is off the
/// grid. Patches are gathered over these one-byte codes (zero padding is
/// level 4), so each input element is validated once, not once per patch.
bool binary_grid_codes(const float* x, std::size_t n, std::uint8_t* codes);

/// Encodes level codes C[m, k] (ldc, each <= 8) into the pack_binary_a
/// plane layout. Cannot fail: the codes were validated when they were made.
void pack_binary_codes(std::size_t m, std::size_t k, const std::uint8_t* C,
                       std::size_t ldc, std::uint64_t* dst);

/// One registry entry. xor_popcount_row fills pops[j] with the total
/// popcount of (a XOR W_j) over kBinaryPlanes planes of kw words, for every
/// weight row j in [0, n) (a: planes contiguous, kw words each; W: n rows
/// of kw words, the PackedBinaryB layout). Row granularity is the perf
/// contract: for kw <= 8 — k <= 512, every layer in the paper's models —
/// the SIMD kernels keep all 8 activation planes in registers across the
/// whole weight panel and load each weight row exactly once.
///
/// The A-side encode is two steps. grid_codes is the validating pass of n
/// floats to level codes 0..8 (false on the first off-grid value, codes
/// then unspecified; nothing is written past n). encode_codes_row encodes
/// k already-validated codes into plane t of the row at planes[t·ldp + w],
/// w < binary_words(k) <= ldp, bit p set iff t < level(p); padding bits are
/// zero. Every variant evaluates the exact grid predicate of DESIGN.md §8
/// per lane, so the encoders are bitwise interchangeable, accept/reject
/// included.
struct BinaryKernel {
  const char* name;
  void (*xor_popcount_row)(const std::uint64_t* a, const std::uint64_t* W,
                           std::size_t n, std::size_t kw, std::uint64_t* pops);
  bool (*grid_codes)(const float* x, std::size_t n, std::uint8_t* codes);
  void (*encode_codes_row)(const std::uint8_t* codes, std::size_t k,
                           std::uint64_t* planes, std::size_t ldp);
};

/// The micro-kernel selected once per process: best CPUID-supported ISA, or
/// the scalar kernel under GBO_FORCE_SCALAR_KERNELS=1.
const BinaryKernel& binary_kernel();

/// The always-available scalar kernel (the in-tree reference the dispatched
/// kernel is gated against).
const BinaryKernel& binary_kernel_scalar();

/// Every registry entry this CPU can run, scalar first and the dispatch
/// choice (absent GBO_FORCE_SCALAR_KERNELS) last; tests gate each of them
/// against the scalar reference.
const std::vector<const BinaryKernel*>& binary_kernels();

/// pack_binary_a with an explicit registry encoder (the dispatched-vs-scalar
/// gates run through this).
bool pack_binary_a_with(const BinaryKernel& kern, std::size_t m,
                        std::size_t k, const float* A, std::size_t lda,
                        std::uint64_t* dst);

/// Name of the dispatched kernel ("scalar" / "avx2" / "avx512_vpopcntdq" /
/// "neon") — recorded in the bench JSON so CI artifacts document the ISA
/// actually exercised.
const char* binary_kernel_name();

/// Runtime-detected CPU features relevant to the kernel registries
/// (common/cpu.hpp: CPUID on x86, compile-time flags elsewhere), e.g.
/// "avx2 fma avx512f avx512bw avx512vpopcntdq".
std::string cpu_features();

/// C[m, n] = unscaled binary MVM of packed activations against packed sign
/// words: C[i, j] = (8k - 2P) · 0.125f. Runs the dispatched kernel; bitwise
/// equal to the float A·Bᵀ kernels over the same on-grid operands (the §8
/// contract) and to every other registry kernel. Threaded over rows,
/// deterministic at any thread count (pure integer reduction per element).
void gemm_binary(std::size_t m, std::size_t n, std::size_t k,
                 const std::uint64_t* packedA, const PackedBinaryB& B, float* C,
                 std::size_t ldc);

/// Same, with an explicit registry kernel (tests gate forced-scalar vs
/// best-ISA bitwise equality through this).
void gemm_binary_with(const BinaryKernel& kern, std::size_t m, std::size_t n,
                      std::size_t k, const std::uint64_t* packedA,
                      const PackedBinaryB& B, float* C, std::size_t ldc);

/// Process-wide count of gemm_binary dispatches; the benches diff it to
/// prove the quant layers actually took the XNOR/popcount route.
std::uint64_t binary_mvm_count();

}  // namespace gbo::gemm
