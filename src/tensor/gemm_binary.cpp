#include "tensor/gemm_binary.hpp"

#include "common/cpu.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <vector>

#if defined(GBO_X86)
#include <immintrin.h>
#endif

namespace gbo::gemm {
namespace {

std::atomic<std::uint64_t> g_binary_packs{0};
std::atomic<std::uint64_t> g_binary_mvms{0};

// ---- registry MVM kernels ------------------------------------------------
//
// Every kernel accumulates D_ij = Σ_p sign_jp · code_ip exactly in int32
// (|D| <= 8k) and stores float(2·D - 8·S_j) · 0.125f; integer sums are
// associative, so the variants are bitwise interchangeable by construction.

/// One output element: |2D - 8S| <= 8k < 2^24, so the conversion and the
/// power-of-two multiply are exact.
inline float code_dot_value(std::int32_t d, std::int32_t s) {
  return static_cast<float>(2 * d - 8 * s) * 0.125f;
}

/// The code bytes [0, len) of one k-quad (len <= 4) as the dword a
/// vpdpbusd lane consumes, zero above len: a row's ragged last quad reads
/// only its live bytes.
inline std::uint32_t load_quad(const std::uint8_t* a, std::size_t len) {
  std::uint32_t v = 0;
  std::memcpy(&v, a, len);
  return v;
}

void mvm_rows_scalar(const std::uint8_t* codes, std::size_t lda,
                     std::size_t lo, std::size_t hi, const PackedBinaryB& B,
                     const BinaryOut& out) {
  const std::size_t kq = B.quads_per_panel(), cs = out.col_stride;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::uint8_t* a = codes + i * lda;
    float* c = out.row(i);
    for (std::size_t p = 0; p < B.panels(); ++p) {
      const SignQuad* w = B.quads.data() + p * kq;
      std::int32_t d[kBinaryPanelCols] = {};
      // Lane p = 4q + r; the ragged last quad has only B.k - 4q lanes.
      auto add_quad = [&](std::size_t q, std::size_t live) {
        for (std::size_t col = 0; col < kBinaryPanelCols; ++col)
          for (std::size_t r = 0; r < live; ++r)
            d[col] += w[q].s[4 * col + r] *
                      static_cast<std::int32_t>(a[4 * q + r]);
      };
      for (std::size_t q = 0; q < B.k / 4; ++q) add_quad(q, 4);
      if (B.k % 4 != 0) add_quad(B.k / 4, B.k % 4);
      const std::size_t j0 = p * kBinaryPanelCols;
      for (std::size_t col = 0; col < std::min(kBinaryPanelCols, B.n - j0);
           ++col)
        c[(j0 + col) * cs] = code_dot_value(d[col], B.sums[j0 + col]);
    }
  }
}

// ---- A-side encoder --------------------------------------------------------
//
// grid_codes evaluates grid_level's exact predicate per lane and turns the
// floats into level codes 0..8, in 64-lane chunks on the SIMD entries.

/// Level 0..8 of an on-grid value, -1 otherwise. (x + 1)·4 alone is not a
/// sufficient test: the addition ROUNDS, so a tiny off-grid value (e.g.
/// 1e-8) lands on an integer — the reconstruction comparison is what makes
/// the test exact (grid values round-trip exactly; NaN fails the range
/// comparison). The SIMD encoders evaluate these same comparisons per lane.
int grid_level(float x) {
  const float lf = (x + 1.0f) * 4.0f;
  if (!(lf >= 0.0f && lf <= 8.0f)) return -1;
  const int lvl = static_cast<int>(lf);
  if (static_cast<float>(lvl) != lf) return -1;
  if (static_cast<float>(lvl) * 0.25f - 1.0f != x) return -1;
  return lvl;
}

bool grid_codes_scalar(const float* x, std::size_t n, std::uint8_t* codes) {
  for (std::size_t i = 0; i < n; ++i) {
    const int lvl = grid_level(x[i]);
    if (lvl < 0) return false;
    codes[i] = static_cast<std::uint8_t>(lvl);
  }
  return true;
}

#if defined(GBO_X86)

// GCC 12's AVX-512 intrinsic headers seed results with self-initialized
// _mm512_undefined_*() values, a known -W(maybe-)uninitialized false
// positive once they inline here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/// One register tile: rows of codes at a + r·lda (k bytes each), the
/// panel(s) of signs from w (kq quads per panel) with their row sums, and
/// output row pointers c[r] already offset to the tile's first column, nr
/// live columns, column stride cs.
using TileFn = void (*)(const std::uint8_t* a, std::size_t lda, std::size_t k,
                        const SignQuad* w, std::size_t kq,
                        const std::int32_t* sums, std::size_t nr,
                        float* const* c, std::size_t cs);

/// Stores `len` (<= 16) lanes of v at c[l·cs]: the strided (NCHW) and
/// ragged-panel epilogue.
inline void store_strided(const float* v, std::size_t len, float* c,
                          std::size_t cs) {
  for (std::size_t l = 0; l < len; ++l) c[l * cs] = v[l];
}

// AVX2: vpmaddubsw multiplies code bytes (u8) by sign bytes (s8) and adds
// adjacent pairs into int16 — |pair| <= 16, so it never saturates — and
// vpmaddwd against ones folds the pairs into the int32 dot of one quad. A
// panel's 16 columns are two YMM of 8 int32 lanes; the tile is 4 rows.

/// One k-quad of the tile: the dword at a + r·lda is row r's 4 codes.
template <int MR>
__attribute__((target("avx2"))) inline void quad_avx2(__m256i (&acc)[MR][2],
                                                      const std::uint8_t* a,
                                                      std::size_t lda,
                                                      const SignQuad& w) {
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i b0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(w.s));
  const __m256i b1 =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(w.s + 32));
  for (int r = 0; r < MR; ++r) {
    const __m256i av = _mm256_broadcastd_epi32(_mm_loadu_si32(a + r * lda));
    acc[r][0] = _mm256_add_epi32(
        acc[r][0], _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones));
    acc[r][1] = _mm256_add_epi32(
        acc[r][1], _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones));
  }
}

template <int MR>
__attribute__((target("avx2"))) void tile_avx2(
    const std::uint8_t* a, std::size_t lda, std::size_t k, const SignQuad* w,
    std::size_t kq, const std::int32_t* sums, std::size_t nr,
    float* const* c, std::size_t cs) {
  __m256i acc[MR][2];
  for (int r = 0; r < MR; ++r)
    acc[r][0] = acc[r][1] = _mm256_setzero_si256();
  const std::size_t kq4 = k / 4;
  for (std::size_t q = 0; q < kq4; ++q)
    quad_avx2<MR>(acc, a + 4 * q, lda, w[q]);
  if (kq4 < kq) {  // ragged last quad: only its live bytes, zero-extended
    std::uint32_t tail[MR];
    for (int r = 0; r < MR; ++r)
      tail[r] = load_quad(a + r * lda + 4 * kq4, k - 4 * kq4);
    quad_avx2<MR>(acc, reinterpret_cast<const std::uint8_t*>(tail), 4,
                  w[kq4]);
  }
  for (int r = 0; r < MR; ++r)
    for (int h = 0; h < 2; ++h) {
      const __m256i s8 = _mm256_slli_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sums + 8 * h)),
          3);
      const __m256 v = _mm256_mul_ps(
          _mm256_cvtepi32_ps(
              _mm256_sub_epi32(_mm256_slli_epi32(acc[r][h], 1), s8)),
          _mm256_set1_ps(0.125f));
      const std::size_t len =
          std::min<std::size_t>(8, nr - std::min<std::size_t>(nr, 8 * h));
      if (cs == 1 && len == 8) {
        _mm256_storeu_ps(c[r] + 8 * h, v);
      } else {
        alignas(32) float t[8];
        _mm256_store_ps(t, v);
        store_strided(t, len, c[r] + 8 * h * cs, cs);
      }
    }
}

// [rows - 1][0]: the 4-row tile and its ragged edges, one panel each.
constexpr TileFn kAvx2Tiles[4][1] = {
    {&tile_avx2<1>}, {&tile_avx2<2>}, {&tile_avx2<3>}, {&tile_avx2<4>}};

// AVX-512 VNNI: vpdpbusd adds the dot of 4 code bytes (u8) and 4 sign
// bytes (s8) into each int32 lane, so one instruction is one k-quad of 16
// output columns. The register tile is MR = 8 rows by NV = 2 panels (16
// accumulators); each k-quad loads NV sign vectors and broadcasts one code
// dword per row.

constexpr int kVnniMR = 8, kVnniNV = 2;

/// One k-quad of the tile: the dword at a + r·lda is row r's 4 codes.
template <int MR, int NV>
__attribute__((target("avx512f,avx512bw,avx512vnni"))) inline void quad_vnni(
    __m512i (&acc)[MR][NV], const std::uint8_t* a, std::size_t lda,
    const SignQuad* w, std::size_t kq) {
  __m512i b[NV];
  for (int v = 0; v < NV; ++v) b[v] = _mm512_load_si512(w[v * kq].s);
  for (int r = 0; r < MR; ++r) {
    const __m512i av = _mm512_broadcastd_epi32(_mm_loadu_si32(a + r * lda));
    for (int v = 0; v < NV; ++v)
      acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], av, b[v]);
  }
}

/// Stores four rows of 16 columns for four consecutive pixels of NCHW
/// planes cs apart: a 4×16 → 16×4 transpose, then column ch's four values
/// are one 128-bit store at c + ch·cs.
__attribute__((target("avx512f"))) inline void store_4x16_transposed(
    __m512 r0, __m512 r1, __m512 r2, __m512 r3, float* c, std::size_t cs) {
  const __m512d t0 = _mm512_castps_pd(_mm512_unpacklo_ps(r0, r1));
  const __m512d t1 = _mm512_castps_pd(_mm512_unpackhi_ps(r0, r1));
  const __m512d t2 = _mm512_castps_pd(_mm512_unpacklo_ps(r2, r3));
  const __m512d t3 = _mm512_castps_pd(_mm512_unpackhi_ps(r2, r3));
  // u[t]'s 128-bit lane L holds column 4L + t.
  const __m512 u[4] = {_mm512_castpd_ps(_mm512_unpacklo_pd(t0, t2)),
                       _mm512_castpd_ps(_mm512_unpackhi_pd(t0, t2)),
                       _mm512_castpd_ps(_mm512_unpacklo_pd(t1, t3)),
                       _mm512_castpd_ps(_mm512_unpackhi_pd(t1, t3))};
  for (std::size_t t = 0; t < 4; ++t) {
    _mm_storeu_ps(c + t * cs, _mm512_castps512_ps128(u[t]));
    _mm_storeu_ps(c + (4 + t) * cs, _mm512_extractf32x4_ps(u[t], 1));
    _mm_storeu_ps(c + (8 + t) * cs, _mm512_extractf32x4_ps(u[t], 2));
    _mm_storeu_ps(c + (12 + t) * cs, _mm512_extractf32x4_ps(u[t], 3));
  }
}

template <int MR, int NV>
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void tile_vnni(
    const std::uint8_t* a, std::size_t lda, std::size_t k, const SignQuad* w,
    std::size_t kq, const std::int32_t* sums, std::size_t nr, float* const* c,
    std::size_t cs) {
  __m512i acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_si512();
  const std::size_t kq4 = k / 4;
  for (std::size_t q = 0; q < kq4; ++q)
    quad_vnni<MR, NV>(acc, a + 4 * q, lda, w + q, kq);
  if (kq4 < kq) {  // ragged last quad: only its live bytes, zero-extended
    std::uint32_t tail[MR];
    for (int r = 0; r < MR; ++r)
      tail[r] = load_quad(a + r * lda + 4 * kq4, k - 4 * kq4);
    quad_vnni<MR, NV>(acc, reinterpret_cast<const std::uint8_t*>(tail), 4,
                      w + kq4, kq);
  }

  __m512 val[MR][NV];
  for (int v = 0; v < NV; ++v) {
    const __m512i s8 = _mm512_slli_epi32(_mm512_loadu_si512(sums + 16 * v), 3);
    for (int r = 0; r < MR; ++r)
      val[r][v] = _mm512_mul_ps(
          _mm512_cvtepi32_ps(
              _mm512_sub_epi32(_mm512_slli_epi32(acc[r][v], 1), s8)),
          _mm512_set1_ps(0.125f));
  }
  if (cs == 1) {  // row-major C
    for (int v = 0; v < NV; ++v) {
      const std::size_t len =
          std::min<std::size_t>(16, nr - std::min<std::size_t>(nr, 16 * v));
      const __mmask16 m = static_cast<__mmask16>((1u << len) - 1u);
      for (int r = 0; r < MR; ++r)
        _mm512_mask_storeu_ps(c[r] + 16 * v, m, val[r][v]);
    }
    return;
  }
  bool consecutive = MR % 4 == 0 && nr == 16 * NV;
  for (int r = 1; r < MR && consecutive; ++r) consecutive = c[r] == c[0] + r;
  if (consecutive) {  // NCHW, whole panels, pixels in one image
    for (int v = 0; v < NV; ++v)
      for (int r = 0; r + 3 < MR; r += 4)
        store_4x16_transposed(val[r][v], val[r + 1][v], val[r + 2][v],
                              val[r + 3][v], c[0] + r + 16 * v * cs, cs);
    return;
  }
  for (int v = 0; v < NV; ++v) {
    const std::size_t len =
        std::min<std::size_t>(16, nr - std::min<std::size_t>(nr, 16 * v));
    for (int r = 0; r < MR; ++r) {
      alignas(64) float t[16];
      _mm512_store_ps(t, val[r][v]);
      store_strided(t, len, c[r] + 16 * v * cs, cs);
    }
  }
}

// [rows - 1][panels - 1]: the full tile and every ragged edge.
constexpr TileFn kVnniTiles[kVnniMR][kVnniNV] = {
    {&tile_vnni<1, 1>, &tile_vnni<1, 2>}, {&tile_vnni<2, 1>, &tile_vnni<2, 2>},
    {&tile_vnni<3, 1>, &tile_vnni<3, 2>}, {&tile_vnni<4, 1>, &tile_vnni<4, 2>},
    {&tile_vnni<5, 1>, &tile_vnni<5, 2>}, {&tile_vnni<6, 1>, &tile_vnni<6, 2>},
    {&tile_vnni<7, 1>, &tile_vnni<7, 2>}, {&tile_vnni<8, 1>, &tile_vnni<8, 2>}};

/// Rows [lo, hi) in register tiles of up to MR rows by NV panels; the
/// ragged edges run the smaller instantiations of the same tile.
template <int MR, int NV>
void mvm_rows_tiled(const TileFn (&tiles)[MR][NV], const std::uint8_t* codes,
                    std::size_t lda, std::size_t lo, std::size_t hi,
                    const PackedBinaryB& B, const BinaryOut& out) {
  const std::size_t kq = B.quads_per_panel(), cs = out.col_stride;
  for (std::size_t i0 = lo; i0 < hi; i0 += MR) {
    const std::size_t mr = std::min<std::size_t>(MR, hi - i0);
    for (std::size_t p = 0; p < B.panels(); p += NV) {
      const std::size_t nv = std::min<std::size_t>(NV, B.panels() - p);
      const std::size_t j0 = p * kBinaryPanelCols;
      float* c[MR];
      for (std::size_t r = 0; r < mr; ++r) c[r] = out.row(i0 + r) + j0 * cs;
      tiles[mr - 1][nv - 1](codes + i0 * lda, lda, B.k,
                            B.quads.data() + p * kq, kq, B.sums.data() + j0,
                            std::min(nv * kBinaryPanelCols, B.n - j0), c, cs);
    }
  }
}

void mvm_rows_avx2(const std::uint8_t* codes, std::size_t lda, std::size_t lo,
                   std::size_t hi, const PackedBinaryB& B,
                   const BinaryOut& out) {
  mvm_rows_tiled(kAvx2Tiles, codes, lda, lo, hi, B, out);
}

void mvm_rows_vnni(const std::uint8_t* codes, std::size_t lda, std::size_t lo,
                   std::size_t hi, const PackedBinaryB& B,
                   const BinaryOut& out) {
  mvm_rows_tiled(kVnniTiles, codes, lda, lo, hi, B, out);
}

// AVX2 encoder: 8 float lanes per compare, movemask_ps collects the failing
// lanes; levels narrow to bytes through packs/packus.
__attribute__((target("avx2"))) inline __m256i levels8_avx2(__m256 x,
                                                            int* bad) {
  const __m256 lf = _mm256_mul_ps(_mm256_add_ps(x, _mm256_set1_ps(1.0f)),
                                  _mm256_set1_ps(4.0f));
  const __m256i lvl = _mm256_cvttps_epi32(lf);
  const __m256 lvlf = _mm256_cvtepi32_ps(lvl);
  __m256 ok = _mm256_and_ps(_mm256_cmp_ps(lf, _mm256_setzero_ps(), _CMP_GE_OQ),
                            _mm256_cmp_ps(lf, _mm256_set1_ps(8.0f), _CMP_LE_OQ));
  ok = _mm256_and_ps(ok, _mm256_cmp_ps(lvlf, lf, _CMP_EQ_OQ));
  const __m256 back = _mm256_sub_ps(_mm256_mul_ps(lvlf, _mm256_set1_ps(0.25f)),
                                    _mm256_set1_ps(1.0f));
  ok = _mm256_and_ps(ok, _mm256_cmp_ps(back, x, _CMP_EQ_OQ));
  *bad |= _mm256_movemask_ps(ok) ^ 0xff;
  return lvl;
}

/// 32 lanes of x as 32 level bytes in lane order.
__attribute__((target("avx2"))) inline __m256i levels32_avx2(const float* x,
                                                             int* bad) {
  const __m256i ab =
      _mm256_packs_epi32(levels8_avx2(_mm256_loadu_ps(x), bad),
                         levels8_avx2(_mm256_loadu_ps(x + 8), bad));
  const __m256i cd =
      _mm256_packs_epi32(levels8_avx2(_mm256_loadu_ps(x + 16), bad),
                         levels8_avx2(_mm256_loadu_ps(x + 24), bad));
  // packs/packus work per 128-bit half; the permute restores lane order.
  return _mm256_permutevar8x32_epi32(_mm256_packus_epi16(ab, cd),
                                     _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

__attribute__((target("avx2"))) bool grid_codes_avx2(const float* x,
                                                     std::size_t n,
                                                     std::uint8_t* codes) {
  for (std::size_t p = 0; p < n; p += 64) {
    // A partial chunk is first copied into a buffer padded with -1.0f
    // (level 0); only its live codes are stored.
    alignas(32) float pad[64];
    const float* src = x + p;
    if (n - p < 64) {
      std::fill(pad + (n - p), pad + 64, -1.0f);
      std::memcpy(pad, src, (n - p) * sizeof(float));
      src = pad;
    }
    int bad = 0;
    const __m256i lo = levels32_avx2(src, &bad);
    const __m256i hi = levels32_avx2(src + 32, &bad);
    if (bad != 0) return false;
    alignas(32) std::uint8_t c[64];
    std::uint8_t* dst = n - p >= 64 ? codes + p : c;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), hi);
    if (dst == c) std::memcpy(codes + p, c, n - p);
  }
  return true;
}

/// Bits of the first `len` lanes of a 64-lane chunk (len may exceed 64).
inline std::uint64_t live_mask(std::size_t len) {
  return len >= 64 ? ~0ull : (1ull << len) - 1;
}

// AVX-512BW encoder: 16 float lanes per compare mask; dead lanes are masked
// loads that read -1.0f (level 0) and masked stores that write nothing.
__attribute__((target("avx512f,avx512bw"))) inline __m128i levels16_avx512(
    const float* p, __mmask16 live, __mmask16* bad) {
  const __m512 x = _mm512_mask_loadu_ps(_mm512_set1_ps(-1.0f), live, p);
  const __m512 lf = _mm512_mul_ps(_mm512_add_ps(x, _mm512_set1_ps(1.0f)),
                                  _mm512_set1_ps(4.0f));
  const __m512i lvl = _mm512_cvttps_epi32(lf);
  const __m512 lvlf = _mm512_cvtepi32_ps(lvl);
  __mmask16 ok = _mm512_cmp_ps_mask(lf, _mm512_setzero_ps(), _CMP_GE_OQ);
  ok = _mm512_mask_cmp_ps_mask(ok, lf, _mm512_set1_ps(8.0f), _CMP_LE_OQ);
  ok = _mm512_mask_cmp_ps_mask(ok, lvlf, lf, _CMP_EQ_OQ);
  const __m512 back = _mm512_sub_ps(_mm512_mul_ps(lvlf, _mm512_set1_ps(0.25f)),
                                    _mm512_set1_ps(1.0f));
  ok = _mm512_mask_cmp_ps_mask(ok, back, x, _CMP_EQ_OQ);
  *bad |= static_cast<__mmask16>(~ok);
  return _mm512_cvtepi32_epi8(lvl);
}

__attribute__((target("avx512f,avx512bw"))) bool grid_codes_avx512(
    const float* x, std::size_t n, std::uint8_t* codes) {
  for (std::size_t p = 0; p < n; p += 64) {
    const std::uint64_t live = live_mask(n - p);
    __mmask16 bad = 0;
    const __m128i q0 =
        levels16_avx512(x + p, static_cast<__mmask16>(live), &bad);
    const __m128i q1 =
        levels16_avx512(x + p + 16, static_cast<__mmask16>(live >> 16), &bad);
    const __m128i q2 =
        levels16_avx512(x + p + 32, static_cast<__mmask16>(live >> 32), &bad);
    const __m128i q3 =
        levels16_avx512(x + p + 48, static_cast<__mmask16>(live >> 48), &bad);
    if (bad != 0) return false;
    const __m256i lo = _mm256_set_m128i(q1, q0);
    const __m256i hi = _mm256_set_m128i(q3, q2);
    _mm512_mask_storeu_epi8(
        codes + p, live,
        _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1));
  }
  return true;
}

#pragma GCC diagnostic pop

#endif  // GBO_X86

constexpr BinaryKernel kScalarKernel{"scalar", &mvm_rows_scalar,
                                     &grid_codes_scalar};
#if defined(GBO_X86)
constexpr BinaryKernel kAvx2Kernel{"avx2", &mvm_rows_avx2, &grid_codes_avx2};
constexpr BinaryKernel kVnniKernel{"avx512_vnni", &mvm_rows_vnni,
                                   &grid_codes_avx512};
#endif

std::vector<const BinaryKernel*> supported_kernels() {
  std::vector<const BinaryKernel*> ks{&kScalarKernel};
#if defined(GBO_X86)
  if (cpu().avx2) ks.push_back(&kAvx2Kernel);
  // The AVX-512 entry's encoder needs BW (byte stores) next to VNNI.
  if (cpu().avx512vnni && cpu().avx512bw) ks.push_back(&kVnniKernel);
#endif
  return ks;
}

}  // namespace

const std::vector<const BinaryKernel*>& binary_kernels() {
  static const std::vector<const BinaryKernel*> ks = supported_kernels();
  return ks;
}

const BinaryKernel& binary_kernel() {
  static const BinaryKernel* k =
      force_scalar_kernels() ? &kScalarKernel : binary_kernels().back();
  return *k;
}

const BinaryKernel& binary_kernel_scalar() { return kScalarKernel; }

const char* binary_kernel_name() { return binary_kernel().name; }

std::string cpu_features() { return cpu_feature_string(); }

std::uint64_t binary_pack_count() {
  return g_binary_packs.load(std::memory_order_relaxed);
}

std::uint64_t binary_mvm_count() {
  return g_binary_mvms.load(std::memory_order_relaxed);
}

PackedBinaryB prepack_binary_b_t(std::size_t n, std::size_t k, const float* B,
                                 std::size_t ldb) {
  PackedBinaryB pb;
  pb.n = n;
  pb.k = k;
  if (n == 0 || k == 0) return pb;  // empty handle, no pack counted
  g_binary_packs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t kq = pb.quads_per_panel();
  pb.quads.assign(pb.panels() * kq, SignQuad{});
  pb.sums.assign(pb.panels() * kBinaryPanelCols, 0);
  // Blocks of 16 rows are whole panels, so no two threads share a quad.
  parallel_for(0, n, kBinaryPanelCols, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const float* src = B + j * ldb;
      SignQuad* w = pb.quads.data() + (j / kBinaryPanelCols) * kq;
      const std::size_t col = 4 * (j % kBinaryPanelCols);
      std::int32_t s = 0;
      for (std::size_t p = 0; p < k; ++p) {
        const std::int8_t sign = src[p] >= 0.0f ? 1 : -1;
        w[p / 4].s[col + p % 4] = sign;
        s += sign;
      }
      pb.sums[j] = s;
    }
  });
  return pb;
}

bool binary_grid_codes(const float* x, std::size_t n, std::uint8_t* codes) {
  constexpr std::size_t kBlock = 1u << 14;  // whole 64-lane chunks
  auto* fn = binary_kernel().grid_codes;
  std::atomic<bool> ok{true};
  parallel_for(0, (n + kBlock - 1) / kBlock, 1,
               [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi && ok.load(std::memory_order_relaxed);
         ++b) {
      const std::size_t p = b * kBlock;
      if (!fn(x + p, std::min(kBlock, n - p), codes + p))
        ok.store(false, std::memory_order_relaxed);
    }
  });
  return ok.load(std::memory_order_relaxed);
}

void gemm_binary_with(const BinaryKernel& kern, std::size_t m,
                      const std::uint8_t* codes, std::size_t lda,
                      const PackedBinaryB& B, const BinaryOut& out) {
  const std::size_t n = B.n, k = B.k;
  // 8k < 2^24 keeps every 2D - 8S exactly representable (the §8 contract).
  assert(k < (std::size_t{1} << 21));
  if (m == 0 || n == 0) return;
  g_binary_mvms.fetch_add(1, std::memory_order_relaxed);
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) out.row(i)[j * out.col_stride] = 0.0f;
    return;
  }
  GBO_TRACE_SPAN(obs::EventType::kBinaryMvm, m,
                 static_cast<std::uint16_t>(n < 65535 ? n : 65535),
                 2ull * m * n * k);
  // Blocks of 8 rows: whole register tiles, and boundaries that depend
  // only on m, so the result is the same at any thread count.
  constexpr std::size_t kRows = 8;
  parallel_for(0, (m + kRows - 1) / kRows, 1,
               [&](std::size_t lo, std::size_t hi) {
    kern.mvm_rows(codes, lda, lo * kRows, std::min(hi * kRows, m), B, out);
  });
}

void gemm_binary(std::size_t m, const std::uint8_t* codes, std::size_t lda,
                 const PackedBinaryB& B, const BinaryOut& out) {
  gemm_binary_with(binary_kernel(), m, codes, lda, B, out);
}

}  // namespace gbo::gemm
