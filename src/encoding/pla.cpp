#include "encoding/pla.hpp"

#include "common/cpu.hpp"

#include <cmath>

#if defined(GBO_X86)
#include <immintrin.h>
#endif

namespace gbo::enc {
namespace {

#if defined(GBO_X86)
/// thermometer_snap over 8 lanes with the scalar expression's IEEE ops,
/// lane for lane: the same clamp (NaN passes it), t = ((v + 1)·0.5)·p, the
/// same truncate-and-compare rounding, NaN at level 0, and a true division
/// by p — 1/p is inexact for non-dyadic p, so a reciprocal multiply would
/// round differently. Returns the count of elements done (a multiple of 8).
__attribute__((target("avx2"))) std::size_t snap_avx2(const float* in,
                                                      float* out,
                                                      std::size_t n,
                                                      std::size_t pulses) {
  const __m256 one = _mm256_set1_ps(1.0f), minus_one = _mm256_set1_ps(-1.0f);
  const __m256 half = _mm256_set1_ps(0.5f), two = _mm256_set1_ps(2.0f);
  const __m256 p = _mm256_set1_ps(static_cast<float>(pulses));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(in + i);
    v = _mm256_blendv_ps(v, one, _mm256_cmp_ps(v, one, _CMP_GT_OQ));
    v = _mm256_blendv_ps(v, minus_one,
                         _mm256_cmp_ps(v, minus_one, _CMP_LT_OQ));
    const __m256 t =
        _mm256_mul_ps(_mm256_mul_ps(_mm256_add_ps(v, one), half), p);
    const __m256 whole =
        _mm256_round_ps(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 up =
        _mm256_and_ps(_mm256_cmp_ps(_mm256_sub_ps(t, whole), half, _CMP_GE_OQ),
                      one);
    const __m256 level = _mm256_and_ps(_mm256_add_ps(whole, up),
                                       _mm256_cmp_ps(t, _mm256_setzero_ps(),
                                                     _CMP_GE_OQ));
    _mm256_storeu_ps(out + i,
                     _mm256_div_ps(_mm256_sub_ps(_mm256_mul_ps(two, level), p),
                                   p));
  }
  return i;
}
#endif

/// out[i] = thermometer_snap(in[i], pulses); in == out is allowed.
void snap_into(const float* in, float* out, std::size_t n,
               std::size_t pulses) {
  std::size_t i = 0;
#if defined(GBO_X86)
  // Chosen once per process, like the binary-MVM and normal kernels.
  static const bool use_avx2 = cpu().avx2 && !force_scalar_kernels();
  if (use_avx2) i = snap_avx2(in, out, n, pulses);
#endif
  for (; i < n; ++i) out[i] = thermometer_snap(in[i], pulses);
}

}  // namespace

PulseTrain pla_encode(const Tensor& activations, std::size_t target_pulses) {
  // Thermometer encoding already snaps to the nearest representable level,
  // which is exactly the PLA approximation.
  return thermometer_encode(activations, target_pulses);
}

Tensor pla_approximate(const Tensor& activations, std::size_t target_pulses) {
  Tensor out(activations.shape());
  snap_into(activations.data(), out.data(), activations.numel(),
            target_pulses);
  return out;
}

void pla_approximate_inplace(Tensor& activations, std::size_t target_pulses) {
  snap_into(activations.data(), activations.data(), activations.numel(),
            target_pulses);
}

PlaErrorStats pla_error(const Tensor& activations, std::size_t target_pulses) {
  PlaErrorStats st;
  const float* a = activations.data();
  double sum_abs = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < activations.numel(); ++i) {
    const double e = std::fabs(thermometer_snap(a[i], target_pulses) - a[i]);
    sum_abs += e;
    sum_sq += e * e;
    st.max_abs_error = std::max(st.max_abs_error, e);
  }
  const double n = static_cast<double>(activations.numel());
  if (n > 0) {
    st.mean_abs_error = sum_abs / n;
    st.rms_error = std::sqrt(sum_sq / n);
  }
  return st;
}

std::size_t scaled_pulse_count(double scale, std::size_t base_pulses) {
  const long n = std::lround(scale * static_cast<double>(base_pulses));
  return n < 1 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace gbo::enc
