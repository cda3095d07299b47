#include "tensor/gemm.hpp"

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "tensor/arena.hpp"

#include <cassert>
#include <cstring>
#include <vector>

namespace gbo::gemm {

namespace {

// Blocking parameters (floats): the KC×NC panel of B (~256 KB) targets L2,
// the MR×NR register tile targets the FMA register file (12 vector
// accumulators at AVX2 widths). MC is also the threading slab, so per-slab
// work stays large enough to amortize dispatch. NC is a whole number of NR
// strips, so packed strips never straddle an NC block.
constexpr std::size_t MC = 64;
constexpr std::size_t KC = kKC;
constexpr std::size_t NC = 256;
constexpr std::size_t MR = kMR;
constexpr std::size_t NR = kNR;
static_assert(NC % NR == 0, "packed B strips must tile NC blocks exactly");

// A·Bᵀ problems below this flop count (and weights below this size, see
// panels_for_weight) run the short direct dot loops: packing B only pays
// off once the operands outgrow L1.
constexpr std::size_t kSmallFlops = 32 * 1024;

// Per-thread A-panel scratch for the packed path: one MC-row slab packed
// into MR strips over a KC-deep block. A fixed thread_local array (≈66 KB)
// — never heap-allocated, so the packed kernel adds zero steady-state
// allocations on any thread, serving workers included.
constexpr std::size_t kAPanelFloats = ((MC + MR - 1) / MR) * MR * KC;
alignas(64) thread_local float tl_apanel[kAPanelFloats];

// Retune guards, checked once at build time (NC % NR is asserted above):
// the buffer's own formula is definitionally self-consistent, so what
// needs validating is the pair of preconditions the prepacked driver
// relies on — slabs never exceed MC rows and K blocks never exceed KC —
// which gemm_prepacked_b asserts per slab in debug builds below.
static_assert(MR >= 1 && NR % 8 == 0,
              "register tile must be non-degenerate and vector-lane whole");

// Process-wide B-panel pack counter (see gemm.hpp: b_pack_count).
std::atomic<std::uint64_t> g_b_packs{0};

void zero_rows(float* C, std::size_t m, std::size_t n, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i)
    std::memset(C + i * ldc, 0, n * sizeof(float));
}

#if defined(__GNUC__) || defined(__clang__)

// Explicit 8-wide vector lanes (GCC/Clang vector extensions): auto-
// vectorization does not reliably promote a float[MR][NR] accumulator tile
// to registers across the runtime-bound k loop, so the 6×16 kernel names
// its 12 accumulators outright. Targets one AVX2 FMA tile (15 of 16 ymm);
// on narrower ISAs the compiler legalizes each op into multiple registers,
// which still beats the scalar fallback.
typedef float vf8 __attribute__((vector_size(32)));

inline vf8 loadu8(const float* p) {
  vf8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
inline void storeu8(float* p, vf8 v) { __builtin_memcpy(p, &v, sizeof(v)); }
inline vf8 splat8(float x) { return vf8{x, x, x, x, x, x, x, x}; }

// The full MR×NR register tile over packed panels: C[i:i+6, j:j+16] +=
// A strip · B strip, with A strip element (r, p) at Ap[p*MR + r] and B strip
// row p at Bp[p*NR]. Lane c of each accumulator only ever combines with
// column j+c, so every C element is one k-ascending chain of c += a·b.
void micro_full_packed(const float* __restrict Ap, const float* __restrict Bp,
                       float* __restrict C, std::size_t ldc, std::size_t kc) {
  static_assert(MR == 6 && NR == 16, "micro_full_packed is 6x16");
  vf8 c00 = loadu8(C + 0 * ldc), c01 = loadu8(C + 0 * ldc + 8);
  vf8 c10 = loadu8(C + 1 * ldc), c11 = loadu8(C + 1 * ldc + 8);
  vf8 c20 = loadu8(C + 2 * ldc), c21 = loadu8(C + 2 * ldc + 8);
  vf8 c30 = loadu8(C + 3 * ldc), c31 = loadu8(C + 3 * ldc + 8);
  vf8 c40 = loadu8(C + 4 * ldc), c41 = loadu8(C + 4 * ldc + 8);
  vf8 c50 = loadu8(C + 5 * ldc), c51 = loadu8(C + 5 * ldc + 8);
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict b = Bp + p * NR;
    const float* __restrict a6 = Ap + p * MR;
    const vf8 b0 = loadu8(b), b1 = loadu8(b + 8);
    vf8 a;
    a = splat8(a6[0]); c00 += a * b0; c01 += a * b1;
    a = splat8(a6[1]); c10 += a * b0; c11 += a * b1;
    a = splat8(a6[2]); c20 += a * b0; c21 += a * b1;
    a = splat8(a6[3]); c30 += a * b0; c31 += a * b1;
    a = splat8(a6[4]); c40 += a * b0; c41 += a * b1;
    a = splat8(a6[5]); c50 += a * b0; c51 += a * b1;
  }
  storeu8(C + 0 * ldc, c00); storeu8(C + 0 * ldc + 8, c01);
  storeu8(C + 1 * ldc, c10); storeu8(C + 1 * ldc + 8, c11);
  storeu8(C + 2 * ldc, c20); storeu8(C + 2 * ldc + 8, c21);
  storeu8(C + 3 * ldc, c30); storeu8(C + 3 * ldc + 8, c31);
  storeu8(C + 4 * ldc, c40); storeu8(C + 4 * ldc + 8, c41);
  storeu8(C + 5 * ldc, c50); storeu8(C + 5 * ldc + 8, c51);
}

#else  // portable scalar fallbacks

void micro_full_packed(const float* __restrict Ap, const float* __restrict Bp,
                       float* __restrict C, std::size_t ldc, std::size_t kc) {
  float acc[MR][NR];
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t c = 0; c < NR; ++c) acc[r][c] = C[r * ldc + c];
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict b = Bp + p * NR;
    const float* __restrict a6 = Ap + p * MR;
    for (std::size_t r = 0; r < MR; ++r) {
      const float a = a6[r];
      for (std::size_t c = 0; c < NR; ++c) acc[r][c] += a * b[c];
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t c = 0; c < NR; ++c) C[r * ldc + c] = acc[r][c];
}

#endif

// Packed-path edge tile: the panels are already zero-padded to MR×NR, so
// the full register kernel runs into a local tile and only the valid mr×nr
// region is exchanged with C (masked store). The padded rows/columns feed
// zeros into lanes that are never written back; valid lanes execute the
// exact op sequence of the full tile.
void micro_edge_packed(std::size_t mr, std::size_t nr,
                       const float* __restrict Ap, const float* __restrict Bp,
                       float* __restrict C, std::size_t ldc, std::size_t kc) {
  alignas(64) float ct[MR * NR] = {};
  for (std::size_t r = 0; r < mr; ++r)
    for (std::size_t c = 0; c < nr; ++c) ct[r * NR + c] = C[r * ldc + c];
  micro_full_packed(Ap, Bp, ct, NR, kc);
  for (std::size_t r = 0; r < mr; ++r)
    for (std::size_t c = 0; c < nr; ++c) C[r * ldc + c] = ct[r * NR + c];
}

#if defined(__GNUC__) || defined(__clang__)

// Skinny mr<MR tile at full NR width — the unit-batch serving linears,
// where the bottom row strip is 1-5 live rows and micro_edge_packed would
// burn MR/mr of its flops on the panel's zero-padded rows. Accumulates only
// the live rows, straight into C (no local-tile copy: nr == NR means no
// column mask is needed). Each live (r, lane) element runs the identical
// k-ascending op chain as the full tile, so outputs are bitwise unchanged.
template <std::size_t R>
void micro_skinny_packed_r(const float* __restrict Ap,
                           const float* __restrict Bp, float* __restrict C,
                           std::size_t ldc, std::size_t kc) {
  vf8 c0[R], c1[R];
  for (std::size_t r = 0; r < R; ++r) {
    c0[r] = loadu8(C + r * ldc);
    c1[r] = loadu8(C + r * ldc + 8);
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict b = Bp + p * NR;
    const float* __restrict a6 = Ap + p * MR;
    const vf8 b0 = loadu8(b), b1 = loadu8(b + 8);
    for (std::size_t r = 0; r < R; ++r) {
      const vf8 a = splat8(a6[r]);
      c0[r] += a * b0;
      c1[r] += a * b1;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    storeu8(C + r * ldc, c0[r]);
    storeu8(C + r * ldc + 8, c1[r]);
  }
}

void micro_skinny_packed(std::size_t mr, const float* __restrict Ap,
                         const float* __restrict Bp, float* __restrict C,
                         std::size_t ldc, std::size_t kc) {
  switch (mr) {
    case 1: micro_skinny_packed_r<1>(Ap, Bp, C, ldc, kc); break;
    case 2: micro_skinny_packed_r<2>(Ap, Bp, C, ldc, kc); break;
    case 3: micro_skinny_packed_r<3>(Ap, Bp, C, ldc, kc); break;
    case 4: micro_skinny_packed_r<4>(Ap, Bp, C, ldc, kc); break;
    default: micro_skinny_packed_r<5>(Ap, Bp, C, ldc, kc); break;
  }
}

#else

// Portable build: the edge tile already handles mr<MR correctly; the skinny
// specialization is a pure perf shortcut.
void micro_skinny_packed(std::size_t mr, const float* __restrict Ap,
                         const float* __restrict Bp, float* __restrict C,
                         std::size_t ldc, std::size_t kc) {
  micro_edge_packed(mr, NR, Ap, Bp, C, ldc, kc);
}

#endif

#if defined(__GNUC__) || defined(__clang__)

inline float hsum8(vf8 v) {
  float s = 0.0f;
  for (int l = 0; l < 8; ++l) s += v[l];
  return s;
}

// Direct A·Bᵀ for small m, where packing B would dominate: each A row is
// dotted against 4 B rows at a time, vectorized 8-wide along k with two
// accumulators per pair (the manual reassociation the compiler may not do).
void nt_direct(std::size_t m, std::size_t n, std::size_t k,
               const float* __restrict A, std::size_t lda,
               const float* __restrict B, std::size_t ldb,
               float* __restrict C, std::size_t ldc) {
  const std::size_t k16 = k - k % 16;
  parallel_for(0, m, 1, [&](std::size_t ilo, std::size_t ihi) {
    for (std::size_t i = ilo; i < ihi; ++i) {
      const float* Ai = A + i * lda;
      float* Ci = C + i * ldc;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const float* b0 = B + (j + 0) * ldb;
        const float* b1 = B + (j + 1) * ldb;
        const float* b2 = B + (j + 2) * ldb;
        const float* b3 = B + (j + 3) * ldb;
        vf8 s0a{}, s0b{}, s1a{}, s1b{}, s2a{}, s2b{}, s3a{}, s3b{};
        for (std::size_t p = 0; p < k16; p += 16) {
          const vf8 a0 = loadu8(Ai + p), a1 = loadu8(Ai + p + 8);
          s0a += a0 * loadu8(b0 + p); s0b += a1 * loadu8(b0 + p + 8);
          s1a += a0 * loadu8(b1 + p); s1b += a1 * loadu8(b1 + p + 8);
          s2a += a0 * loadu8(b2 + p); s2b += a1 * loadu8(b2 + p + 8);
          s3a += a0 * loadu8(b3 + p); s3b += a1 * loadu8(b3 + p + 8);
        }
        float r0 = hsum8(s0a) + hsum8(s0b), r1 = hsum8(s1a) + hsum8(s1b);
        float r2 = hsum8(s2a) + hsum8(s2b), r3 = hsum8(s3a) + hsum8(s3b);
        for (std::size_t p = k16; p < k; ++p) {
          const float a = Ai[p];
          r0 += a * b0[p]; r1 += a * b1[p]; r2 += a * b2[p]; r3 += a * b3[p];
        }
        Ci[j] = r0; Ci[j + 1] = r1; Ci[j + 2] = r2; Ci[j + 3] = r3;
      }
      for (; j < n; ++j) {
        const float* bj = B + j * ldb;
        vf8 sa{}, sb{};
        for (std::size_t p = 0; p < k16; p += 16) {
          sa += loadu8(Ai + p) * loadu8(bj + p);
          sb += loadu8(Ai + p + 8) * loadu8(bj + p + 8);
        }
        float r = hsum8(sa) + hsum8(sb);
        for (std::size_t p = k16; p < k; ++p) r += Ai[p] * bj[p];
        Ci[j] = r;
      }
    }
  });
}

constexpr bool kHaveNtDirect = true;

#else

void nt_direct(std::size_t, std::size_t, std::size_t, const float*,
               std::size_t, const float*, std::size_t, float*, std::size_t) {}
constexpr bool kHaveNtDirect = false;

#endif

inline std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

}  // namespace

std::size_t packed_b_floats(std::size_t n, std::size_t k) {
  return round_up(n, NR) * k;
}

void pack_b(std::size_t k, std::size_t n, const float* B, std::size_t ldb,
            float* dst) {
  g_b_packs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n_round = round_up(n, NR);
  // One task per column strip: contiguous reads of up to NR floats per B
  // row, contiguous writes within the strip. Pure data movement, so the
  // work partition is free to be anything deterministic-or-not.
  parallel_for(0, n_round / NR, 1, [&](std::size_t slo, std::size_t shi) {
    for (std::size_t s = slo; s < shi; ++s) {
      const std::size_t j0 = s * NR;
      const std::size_t nr = j0 + NR <= n ? NR : n - j0;
      for (std::size_t pc = 0; pc < k; pc += KC) {
        const std::size_t kc = pc + KC < k ? KC : k - pc;
        float* strip = dst + pc * n_round + s * NR * kc;
        for (std::size_t p = 0; p < kc; ++p) {
          const float* src = B + (pc + p) * ldb + j0;
          float* row = strip + p * NR;
          for (std::size_t jj = 0; jj < nr; ++jj) row[jj] = src[jj];
          for (std::size_t jj = nr; jj < NR; ++jj) row[jj] = 0.0f;
        }
      }
    }
  });
}

void pack_b_t(std::size_t n, std::size_t k, const float* B, std::size_t ldb,
              float* dst) {
  g_b_packs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n_round = round_up(n, NR);
  // Element (p, j) of the packed panel is B[j, p]: each source row of B is
  // read contiguously and scattered down one strip column (stride NR, L1-
  // resident) — the transpose is fused into the pack, no Bᵀ materialized.
  parallel_for(0, n_round / NR, 1, [&](std::size_t slo, std::size_t shi) {
    for (std::size_t s = slo; s < shi; ++s) {
      const std::size_t j0 = s * NR;
      const std::size_t nr = j0 + NR <= n ? NR : n - j0;
      for (std::size_t pc = 0; pc < k; pc += KC) {
        const std::size_t kc = pc + KC < k ? KC : k - pc;
        float* strip = dst + pc * n_round + s * NR * kc;
        for (std::size_t jj = 0; jj < nr; ++jj) {
          const float* src = B + (j0 + jj) * ldb + pc;
          for (std::size_t p = 0; p < kc; ++p) strip[p * NR + jj] = src[p];
        }
        for (std::size_t jj = nr; jj < NR; ++jj)
          for (std::size_t p = 0; p < kc; ++p) strip[p * NR + jj] = 0.0f;
      }
    }
  });
}

void pack_a_panel(const float* A, std::size_t lda, std::size_t i0,
                  std::size_t i1, std::size_t pc, std::size_t kc, float* dst) {
  for (std::size_t i = i0; i < i1; i += MR) {
    const std::size_t mr = i + MR < i1 ? MR : i1 - i;
    float* strip = dst + ((i - i0) / MR) * MR * kc;
    for (std::size_t r = 0; r < mr; ++r) {
      const float* src = A + (i + r) * lda + pc;
      for (std::size_t p = 0; p < kc; ++p) strip[p * MR + r] = src[p];
    }
    for (std::size_t r = mr; r < MR; ++r)
      for (std::size_t p = 0; p < kc; ++p) strip[p * MR + r] = 0.0f;
  }
}

void pack_a_panel_t(const float* A, std::size_t lda, std::size_t i0,
                    std::size_t i1, std::size_t pc, std::size_t kc,
                    float* dst) {
  // Element (r, p) is A[pc + p, i0 + r]: each K row contributes one
  // contiguous run of up to MR floats per strip — the transpose is fused
  // into the pack, no Aᵀ materialized.
  for (std::size_t i = i0; i < i1; i += MR) {
    const std::size_t mr = i + MR < i1 ? MR : i1 - i;
    float* strip = dst + ((i - i0) / MR) * MR * kc;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = A + (pc + p) * lda + i;
      float* col = strip + p * MR;
      for (std::size_t r = 0; r < mr; ++r) col[r] = src[r];
      for (std::size_t r = mr; r < MR; ++r) col[r] = 0.0f;
    }
  }
}

void gemm_prepacked_b(std::size_t m, std::size_t n, std::size_t k,
                      const PanelPacker& pack_a, const float* packedB,
                      float* C, std::size_t ldc, bool accumulate) {
  if (!accumulate) zero_rows(C, m, n, ldc);
  if (m == 0 || n == 0 || k == 0) return;
  GBO_TRACE_SPAN(obs::EventType::kGemm, m,
                 static_cast<std::uint16_t>(n < 65535 ? n : 65535),
                 2ull * m * n * k);
  const std::size_t n_round = round_up(n, NR);
  parallel_for(0, m, MC, [&](std::size_t i0, std::size_t i1) {
    float* ap = tl_apanel;
    // The fixed thread_local buffer holds exactly one MC-row slab of MR
    // strips over a KC block; this is the bound every PanelPacker packs
    // against.
    assert(i1 - i0 <= MC);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = pc + KC < k ? KC : k - pc;
      assert(kc <= KC);
      pack_a(i0, i1, pc, kc, ap);
      const float* bblock = packedB + pc * n_round;
      for (std::size_t jc = 0; jc < n; jc += NC) {
        const std::size_t nc = jc + NC < n ? NC : n - jc;
        for (std::size_t i = i0; i < i1; i += MR) {
          const std::size_t mr = i + MR < i1 ? MR : i1 - i;
          const float* astrip = ap + ((i - i0) / MR) * MR * kc;
          for (std::size_t j = jc; j < jc + nc; j += NR) {
            const std::size_t nr = j + NR < jc + nc ? NR : jc + nc - j;
            const float* bstrip = bblock + (j / NR) * NR * kc;
            float* Cb = C + i * ldc + j;
            if (mr == MR && nr == NR)
              micro_full_packed(astrip, bstrip, Cb, ldc, kc);
            else if (nr == NR)
              micro_skinny_packed(mr, astrip, bstrip, Cb, ldc, kc);
            else
              micro_edge_packed(mr, nr, astrip, bstrip, Cb, ldc, kc);
          }
        }
      }
    }
  });
}

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate) {
  const PackedB pb = prepack_b(k, n, B, ldb);
  gemm_prepacked(m, n, k, A, lda, pb.panels.data(), C, ldc, accumulate);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    zero_rows(C, m, n, ldc);
    return;
  }
  if (m * n * k <= kSmallFlops) {
    for (std::size_t i = 0; i < m; ++i) {
      const float* Ai = A + i * lda;
      float* Ci = C + i * ldc;
      for (std::size_t j = 0; j < n; ++j) {
        const float* Bj = B + j * ldb;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += Ai[p] * Bj[p];
        Ci[j] = acc;
      }
    }
    return;
  }
  // Small m (the analytic-MVM batch case): packing B costs more than it
  // saves, so dot directly with the vectorized multi-accumulator kernel.
  if (kHaveNtDirect && m < 64) {
    nt_direct(m, n, k, A, lda, B, ldb, C, ldc);
    return;
  }
  // B packed once, straight from its transposed storage, turns the
  // dot-product loop (a serial reduction the compiler cannot vectorize
  // without reassociating) into the streaming packed kernel; the k·n pack
  // is negligible against the m·n·k multiply.
  const PackedB pb = prepack_b_t(n, k, B, ldb);
  gemm_prepacked(m, n, k, A, lda, pb.panels.data(), C, ldc);
}

void gemm_nt_rowwise(std::size_t m, std::size_t n, std::size_t k,
                     const float* A, std::size_t lda, const float* B,
                     std::size_t ldb, float* C, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    zero_rows(C, m, n, ldc);
    return;
  }
  GBO_TRACE_SPAN(obs::EventType::kGemm, m,
                 static_cast<std::uint16_t>(n < 65535 ? n : 65535),
                 2ull * m * n * k);
  if (kHaveNtDirect) {
    nt_direct(m, n, k, A, lda, B, ldb, C, ldc);
    return;
  }
  // Portable fallback: plain k-ascending dots, one row at a time — also
  // row-stable, just without the manual vector reassociation.
  parallel_for(0, m, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float* Ai = A + i * lda;
      float* Ci = C + i * ldc;
      for (std::size_t j = 0; j < n; ++j) {
        const float* Bj = B + j * ldb;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += Ai[p] * Bj[p];
        Ci[j] = acc;
      }
    }
  });
}

bool panels_for_weight(std::size_t n, std::size_t k) {
  return n * k > kSmallFlops;
}

std::uint64_t b_pack_count() {
  return g_b_packs.load(std::memory_order_relaxed);
}

PackedB prepack_b(std::size_t k, std::size_t n, const float* B,
                  std::size_t ldb) {
  PackedB pb;
  pb.n = n;
  pb.k = k;
  if (n == 0 || k == 0) return pb;  // empty handle, no pack counted
  pb.panels.resize(packed_b_floats(n, k));
  pack_b(k, n, B, ldb, pb.panels.data());
  return pb;
}

PackedB prepack_b_t(std::size_t n, std::size_t k, const float* B,
                    std::size_t ldb) {
  PackedB pb;
  pb.n = n;
  pb.k = k;
  if (n == 0 || k == 0) return pb;
  pb.panels.resize(packed_b_floats(n, k));
  pack_b_t(n, k, B, ldb, pb.panels.data());
  return pb;
}

const float* pack_fresh_b_t(std::size_t n, std::size_t k, const float* B,
                            std::size_t ldb, ScratchArena* arena,
                            std::vector<float>* own) {
  const std::size_t pf = packed_b_floats(n, k);
  float* pb;
  if (arena) {
    pb = arena->alloc_floats(pf);
  } else {
    own->resize(pf);
    pb = own->data();
  }
  pack_b_t(n, k, B, ldb, pb);
  return pb;
}

void gemm_prepacked(std::size_t m, std::size_t n, std::size_t k,
                    const float* A, std::size_t lda, const float* packedB,
                    float* C, std::size_t ldc, bool accumulate) {
  gemm_prepacked_b(
      m, n, k,
      [&](std::size_t i0, std::size_t i1, std::size_t pc, std::size_t kc,
          float* dst) { pack_a_panel(A, lda, i0, i1, pc, kc, dst); },
      packedB, C, ldc, accumulate);
}

const float* PackedWeightCache::get(const float* B, std::size_t ldb,
                                    std::size_t n, std::size_t k,
                                    bool transposed,
                                    std::uint64_t version) const {
  gate_.ensure(version, [&] {
    panels_.resize(packed_b_floats(n, k));
    if (transposed)
      pack_b_t(n, k, B, ldb, panels_.data());
    else
      pack_b(k, n, B, ldb, panels_.data());
    packs_.fetch_add(1, std::memory_order_relaxed);
  });
  return panels_.data();
}

void gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k, const float* A,
                 std::size_t lda, const float* B, std::size_t ldb, float* C,
                 std::size_t ldc) {
  const PackedB pb = prepack_b(k, n, B, ldb);
  gemm_prepacked_b(
      m, n, k,
      [&](std::size_t i0, std::size_t i1, std::size_t pc, std::size_t kc,
          float* dst) { pack_a_panel_t(A, lda, i0, i1, pc, kc, dst); },
      pb.panels.data(), C, ldc, /*accumulate=*/true);
}

// ---- retained naive reference kernels (seed implementations) -------------

void naive_gemm_nn_acc(std::size_t m, std::size_t n, std::size_t k,
                       const float* A, const float* B, float* C) {
  for (std::size_t i = 0; i < m; ++i) {
    float* Ci = C + i * n;
    const float* Ai = A + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = Ai[kk];
      if (aik == 0.0f) continue;
      const float* Bk = B + kk * n;
      for (std::size_t j = 0; j < n; ++j) Ci[j] += aik * Bk[j];
    }
  }
}

void naive_gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* A,
                   const float* B, float* C) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* Ai = A + i * k;
    float* Ci = C + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* Bj = B + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += Ai[kk] * Bj[kk];
      Ci[j] = acc;
    }
  }
}

void naive_gemm_tn_acc(std::size_t m, std::size_t n, std::size_t k,
                       const float* A, const float* B, float* C) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* Ak = A + kk * m;
    const float* Bk = B + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = Ak[i];
      if (aki == 0.0f) continue;
      float* Ci = C + i * n;
      for (std::size_t j = 0; j < n; ++j) Ci[j] += aki * Bk[j];
    }
  }
}

}  // namespace gbo::gemm
