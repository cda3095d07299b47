#include "quant/act_quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace gbo::quant {
namespace {

// The value of level idx (an integer-valued float) on a grid of `steps`.
float level_value(float idx, float steps) { return idx / steps * 2.0f - 1.0f; }

// Non-NaN floats as integers in value order (-0 and +0 both map to 0);
// 64-bit so the bisection midpoint cannot overflow.
std::int64_t float_order(float x) {
  std::uint32_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  const auto mag = static_cast<std::int64_t>(b & 0x7FFFFFFFu);
  return (b >> 31) ? -mag : mag;
}

float order_float(std::int64_t o) {
  const std::uint32_t b = o < 0 ? 0x80000000u | static_cast<std::uint32_t>(-o)
                                : static_cast<std::uint32_t>(o);
  float x = 0.0f;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

}  // namespace

float quantize_value(float x, std::size_t levels) {
  if (levels < 2) throw std::invalid_argument("quantize: levels must be >= 2");
  x = x > 1.0f ? 1.0f : (x < -1.0f ? -1.0f : x);
  const float steps = static_cast<float>(levels - 1);
  return level_value(std::round((x + 1.0f) * 0.5f * steps), steps);
}

std::size_t level_index(float x, std::size_t levels) {
  if (levels < 2) throw std::invalid_argument("level_index: levels must be >= 2");
  if (std::isnan(x)) throw std::domain_error("level_index: NaN has no level");
  x = x > 1.0f ? 1.0f : (x < -1.0f ? -1.0f : x);
  const float steps = static_cast<float>(levels - 1);
  return static_cast<std::size_t>(std::round((x + 1.0f) * 0.5f * steps));
}

Tensor quantize(const Tensor& x, std::size_t levels) {
  Tensor out(x.shape());
  const float* p = x.data();
  float* q = out.data();
  for (std::size_t i = 0; i < x.numel(); ++i) q[i] = quantize_value(p[i], levels);
  return out;
}

QuantTanh::QuantTanh(std::size_t levels) : levels_(levels) {
  if (levels < 2) throw std::invalid_argument("QuantTanh: levels must be >= 2");
  const auto output = [levels](float x) {
    return quantize_value(std::tanh(x), levels);
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float steps = static_cast<float>(levels - 1);
  for (std::size_t j = 1; j < levels; ++j) {
    // Least x with output >= level j: false at -inf (level 0), true at +inf.
    const float level = level_value(static_cast<float>(j), steps);
    std::int64_t lo = float_order(-inf), hi = float_order(inf);
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (output(order_float(mid)) >= level)
        hi = mid;
      else
        lo = mid;
    }
    thresholds_.push_back(order_float(hi));
  }
}

void QuantTanh::quantize_tanh(const float* __restrict x, float* __restrict q,
                              std::size_t n) const {
  // The output level is the number of thresholds at or below x, counted one
  // threshold at a time over cache-sized blocks (each pass vectorizes). NaN
  // is at or above no threshold; it takes the scalar expression (NaN too).
  const float steps = static_cast<float>(levels_ - 1);
  constexpr std::size_t kBlock = 512;
  std::size_t nans = 0;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t e = std::min(n, b + kBlock);
    for (std::size_t i = b; i < e; ++i) q[i] = 0.0f;
    for (float t : thresholds_)
      for (std::size_t i = b; i < e; ++i) q[i] += x[i] >= t ? 1.0f : 0.0f;
    for (std::size_t i = b; i < e; ++i) {
      nans += x[i] != x[i];
      q[i] = level_value(q[i], steps);
    }
  }
  if (nans > 0)
    for (std::size_t i = 0; i < n; ++i)
      if (std::isnan(x[i])) q[i] = quantize_value(std::tanh(x[i]), levels_);
}

Tensor QuantTanh::forward(const Tensor& x) {
  Tensor out(x.shape());
  cached_tanh_ = Tensor(x.shape());
  const float* p = x.data();
  float* t = cached_tanh_.data();
  // tanh is only needed for the STE backward's derivative.
  for (std::size_t i = 0; i < x.numel(); ++i) t[i] = std::tanh(p[i]);
  quantize_tanh(p, out.data(), x.numel());
  return out;
}

Tensor QuantTanh::infer(const Tensor& x, gbo::nn::EvalContext& ctx) const {
  Tensor out = ctx.make(x.shape());
  quantize_tanh(x.data(), out.data(), x.numel());
  return out;
}

Tensor QuantTanh::backward(const Tensor& grad_out) {
  Tensor::check_same_shape(grad_out, cached_tanh_, "QuantTanh::backward");
  // STE through the quantizer; exact derivative of tanh.
  Tensor grad(grad_out.shape());
  const float* g = grad_out.data();
  const float* y = cached_tanh_.data();
  float* o = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i)
    o[i] = g[i] * (1.0f - y[i] * y[i]);
  return grad;
}

}  // namespace gbo::quant
