#include "common/rng.hpp"

#include "common/cpu.hpp"

#include <algorithm>

#if defined(GBO_X86)
#include <immintrin.h>
#endif

namespace gbo {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// The one place a normal is scaled and shifted.
double scale_normal(double mean, double stddev, double z) {
  return mean + stddev * z;
}

}  // namespace

__attribute__((noinline)) void box_muller(double u1, double u2, double& c,
                                          double& s) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  c = r * std::cos(theta);
  s = r * std::sin(theta);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is negligible for the span sizes used here (< 2^32).
  return lo + static_cast<std::int64_t>((*this)() % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; reject u1 == 0 to keep log() finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  double c = 0.0;
  box_muller(u1, u2, c, cached_normal_);
  has_cached_normal_ = true;
  return c;
}

double Rng::normal(double mean, double stddev) {
  return scale_normal(mean, stddev, normal());
}

void Rng::fill_normal(float* out, std::size_t n, double mean, double stddev) {
  (void)fill_normal_with(normal_kernel(), out, n, mean, stddev);
}

std::size_t Rng::fill_normal_with(const NormalKernel& kern, float* out,
                                  std::size_t n, double mean, double stddev) {
  std::size_t i = 0, recomputed = 0;
  // A cached sine half from an earlier call is the stream's next normal.
  if (n > 0 && has_cached_normal_)
    out[i++] = static_cast<float>(normal(mean, stddev));
  constexpr std::size_t kBlock = 256;  // pairs per uniform block
  double u1[kBlock], u2[kBlock];       // written before they are read
  while (n - i >= 2) {
    const std::size_t pairs = std::min(kBlock, (n - i) / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      double a = 0.0;
      do {
        a = uniform();
      } while (a <= 0.0);
      u1[p] = a;
      u2[p] = uniform();
    }
    recomputed += kern.transform(u1, u2, pairs, mean, stddev, out + i);
    i += 2 * pairs;
  }
  // An odd tail takes the cosine half of one more pair and caches its sine
  // half, exactly as normal() does.
  if (i < n) out[i] = static_cast<float>(normal(mean, stddev));
  return recomputed;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the parent's state with the stream id; do not advance the parent.
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 13) ^ (stream * 0xD2B74407B1CE6E93ull);
  return Rng(splitmix64(mix));
}

// ---- batched Box–Muller registry (DESIGN.md §12) ---------------------------
//
// The AVX2+FMA entry evaluates ln, sqrt and sincos in SIMD: fdlibm's log
// reduction and polynomial, a hardware sqrt, and a three-part Cody–Waite
// reduction of θ by π/2 feeding fdlibm's sin/cos kernels on |y| <= π/4.
// Its relative error is a few ulps (budget: 2^-44). Each result is then
// guarded: when mean + stddev·z lies within |stddev·z|·2^-42 + 2^-51·|d|
// of a float rounding boundary, the pair is recomputed with box_muller and
// scale_normal, so every float written is the scalar one.

namespace {

std::size_t transform_scalar(const double* u1, const double* u2,
                             std::size_t pairs, double mean, double stddev,
                             float* out) {
  for (std::size_t p = 0; p < pairs; ++p) {
    double c = 0.0, s = 0.0;
    box_muller(u1[p], u2[p], c, s);
    out[2 * p] = static_cast<float>(scale_normal(mean, stddev, c));
    out[2 * p + 1] = static_cast<float>(scale_normal(mean, stddev, s));
  }
  return 0;
}

void raw_scalar(const double* u1, const double* u2, std::size_t pairs,
                double* c, double* s) {
  for (std::size_t p = 0; p < pairs; ++p) box_muller(u1[p], u2[p], c[p], s[p]);
}

constexpr NormalKernel kScalarNormal{"scalar", &transform_scalar, &raw_scalar};

#if defined(GBO_X86)

// fdlibm e_log.c / k_sin.c / k_cos.c coefficients.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;
// π/2 = kPio2a + kPio2b + kPio2c: the first two carry 33 bits each, so
// k·kPio2a and k·kPio2b are exact for the quadrant counts k <= 4 used here.
constexpr double kPio2a = 1.57079632673412561417e+00;
constexpr double kPio2b = 6.07710050630396597660e-11;
constexpr double kPio2c = 2.02226624879595063154e-21;
constexpr double kInvPio2 = 6.36619772367581382433e-01;
constexpr double kTwoPi = 2.0 * M_PI;  // the scalar θ = 2.0 * M_PI * u2
constexpr double kSqrt2 = 0x1.6a09e667f3bcdp0;
constexpr double kRound = 0x1.8p52;  // x + kRound - kRound rounds to integer
constexpr double kTwoP52 = 0x1p52;
// Guard band: |stddev·z|·kGuardRel + |d|·kGuardAbs + kGuardMin.
constexpr double kGuardRel = 0x1p-42, kGuardAbs = 0x1p-51;
constexpr double kGuardMin = 0x1p-1022;

// The guard's fallback for one pair: the scalar entry itself. Out of line
// so scale_normal is not inlined into the vector kernels, where their ISA
// could contract it into an FMA that the scalar path does not use.
__attribute__((noinline)) void scalar_pair(double u1, double u2, double mean,
                                           double stddev, float* out) {
  (void)transform_scalar(&u1, &u2, 1, mean, stddev, out);
}

#define GBO_AVX2 __attribute__((target("avx2,fma")))

// ---- AVX2 + FMA: 4 pairs per step -----------------------------------------

GBO_AVX2 inline __m256d set4(double v) { return _mm256_set1_pd(v); }

// c0 + x·(c1 + x·(c2 + ...)), Horner.
GBO_AVX2 inline __m256d poly4(__m256d, double c) { return set4(c); }
template <class... Cs>
GBO_AVX2 inline __m256d poly4(__m256d x, double c0, Cs... cs) {
  return _mm256_fmadd_pd(poly4(x, cs...), x, set4(c0));
}

GBO_AVX2 inline void bm4(const double* u1p, const double* u2p, __m256d& zc,
                         __m256d& zs) {
  // ln u1 (u1 in [2^-53, 1), always normal): u1 = m·2^e, m in [√2/2, √2).
  const __m256d u1 = _mm256_loadu_pd(u1p);
  const __m256i bits = _mm256_castpd_si256(u1);
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(bits, 52), _mm256_castpd_si256(set4(kTwoP52)))),
      set4(kTwoP52 + 1023.0));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFll)),
      _mm256_castpd_si256(set4(1.0))));
  const __m256d big = _mm256_cmp_pd(m, set4(kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, set4(0.5)), big);
  e = _mm256_add_pd(e, _mm256_and_pd(big, set4(1.0)));
  const __m256d f = _mm256_sub_pd(m, set4(1.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(set4(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(w, poly4(w, kLg2, kLg4, kLg6));
  const __m256d t2 = _mm256_mul_pd(z, poly4(w, kLg1, kLg3, kLg5, kLg7));
  const __m256d hfsq = _mm256_mul_pd(set4(0.5), _mm256_mul_pd(f, f));
  const __m256d inner =
      _mm256_fmadd_pd(s, _mm256_add_pd(hfsq, _mm256_add_pd(t1, t2)),
                      _mm256_mul_pd(e, set4(kLn2Lo)));
  const __m256d ln = _mm256_fmsub_pd(
      e, set4(kLn2Hi), _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
  const __m256d r = _mm256_sqrt_pd(_mm256_mul_pd(set4(-2.0), ln));

  // θ = 2π·u2, k = round(θ·2/π), y = θ - k·π/2 in three parts.
  const __m256d theta = _mm256_mul_pd(set4(kTwoPi), _mm256_loadu_pd(u2p));
  const __m256d kr = _mm256_fmadd_pd(theta, set4(kInvPio2), set4(kRound));
  const __m256d k = _mm256_sub_pd(kr, set4(kRound));
  __m256d y = _mm256_fnmadd_pd(k, set4(kPio2a), theta);
  y = _mm256_fnmadd_pd(k, set4(kPio2b), y);
  y = _mm256_fnmadd_pd(k, set4(kPio2c), y);
  const __m256d y2 = _mm256_mul_pd(y, y);
  const __m256d sin_y = _mm256_fmadd_pd(
      _mm256_mul_pd(y, y2), poly4(y2, kS1, kS2, kS3, kS4, kS5, kS6), y);
  const __m256d hz = _mm256_mul_pd(set4(0.5), y2);
  const __m256d one_m_hz = _mm256_sub_pd(set4(1.0), hz);
  const __m256d cr =
      _mm256_mul_pd(y2, poly4(y2, kC1, kC2, kC3, kC4, kC5, kC6));
  const __m256d tail = _mm256_sub_pd(_mm256_sub_pd(set4(1.0), one_m_hz), hz);
  const __m256d cos_y =
      _mm256_add_pd(one_m_hz, _mm256_fmadd_pd(y2, cr, tail));
  // Quadrant q = k mod 4: odd q swaps sin and cos; cos θ is negative for
  // q in {1, 2}, sin θ for q in {2, 3}.
  const __m256i one = _mm256_set1_epi64x(1), two = _mm256_set1_epi64x(2);
  const __m256i q = _mm256_and_si256(_mm256_castpd_si256(kr),
                                     _mm256_set1_epi64x(3));
  const __m256d odd = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(q, one), one));
  const __m256d cs = _mm256_blendv_pd(cos_y, sin_y, odd);
  const __m256d sn = _mm256_blendv_pd(sin_y, cos_y, odd);
  const __m256d c_sign = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(_mm256_add_epi64(q, one), two), 62));
  const __m256d s_sign =
      _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(q, two), 62));
  zc = _mm256_mul_pd(r, _mm256_xor_pd(cs, c_sign));
  zs = _mm256_mul_pd(r, _mm256_xor_pd(sn, s_sign));
}

// d = mean + stddev·z rounded to float, and the lanes whose guard band
// [d - band, d + band] straddles a float rounding boundary (nonzero).
GBO_AVX2 inline __m128 round4(__m256d z, __m256d mean, __m256d stddev,
                              __m128i& unsafe) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  const __m256d p = _mm256_mul_pd(stddev, z);
  const __m256d d = _mm256_add_pd(mean, p);
  const __m256d band = _mm256_fmadd_pd(
      _mm256_and_pd(p, abs_mask), set4(kGuardRel),
      _mm256_fmadd_pd(_mm256_and_pd(d, abs_mask), set4(kGuardAbs),
                      set4(kGuardMin)));
  const __m128 lo = _mm256_cvtpd_ps(_mm256_sub_pd(d, band));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_add_pd(d, band));
  unsafe = _mm_or_si128(
      unsafe, _mm_xor_si128(_mm_castps_si128(lo), _mm_castps_si128(hi)));
  return _mm256_cvtpd_ps(d);
}

GBO_AVX2 std::size_t transform_avx2(const double* u1, const double* u2,
                                    std::size_t pairs, double mean,
                                    double stddev, float* out) {
  const __m256d vm = set4(mean), vs = set4(stddev);
  std::size_t p = 0, recomputed = 0;
  for (; p + 4 <= pairs; p += 4) {
    __m256d zc, zs;
    bm4(u1 + p, u2 + p, zc, zs);
    __m128i unsafe = _mm_setzero_si128();
    const __m128 fc = round4(zc, vm, vs, unsafe);
    const __m128 fs = round4(zs, vm, vs, unsafe);
    _mm_storeu_ps(out + 2 * p, _mm_unpacklo_ps(fc, fs));
    _mm_storeu_ps(out + 2 * p + 4, _mm_unpackhi_ps(fc, fs));
    if (!_mm_testz_si128(unsafe, unsafe)) {
      alignas(16) std::uint32_t lanes[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes), unsafe);
      for (std::size_t l = 0; l < 4; ++l)
        if (lanes[l] != 0) {
          scalar_pair(u1[p + l], u2[p + l], mean, stddev, out + 2 * (p + l));
          ++recomputed;
        }
    }
  }
  for (; p < pairs; ++p) scalar_pair(u1[p], u2[p], mean, stddev, out + 2 * p);
  return recomputed;
}

GBO_AVX2 void raw_avx2(const double* u1, const double* u2, std::size_t pairs,
                       double* c, double* s) {
  std::size_t p = 0;
  for (; p + 4 <= pairs; p += 4) {
    __m256d zc, zs;
    bm4(u1 + p, u2 + p, zc, zs);
    _mm256_storeu_pd(c + p, zc);
    _mm256_storeu_pd(s + p, zs);
  }
  raw_scalar(u1 + p, u2 + p, pairs - p, c + p, s + p);
}

#undef GBO_AVX2

constexpr NormalKernel kAvx2Normal{"avx2_fma", &transform_avx2, &raw_avx2};

#endif  // GBO_X86

std::vector<const NormalKernel*> supported_normal_kernels() {
  std::vector<const NormalKernel*> ks{&kScalarNormal};
#if defined(GBO_X86)
  if (cpu().avx2 && cpu().fma) ks.push_back(&kAvx2Normal);
#endif
  return ks;
}

}  // namespace

const std::vector<const NormalKernel*>& normal_kernels() {
  static const std::vector<const NormalKernel*> ks = supported_normal_kernels();
  return ks;
}

const NormalKernel& normal_kernel() {
  static const NormalKernel* k =
      force_scalar_kernels() ? &kScalarNormal : normal_kernels().back();
  return *k;
}

const NormalKernel& normal_kernel_scalar() { return kScalarNormal; }

}  // namespace gbo
