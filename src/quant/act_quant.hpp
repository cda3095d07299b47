// Multi-level activation quantization for temporal binary bit encoding.
//
// The paper (§IV-A) quantizes Tanh activations to 9 levels so they map onto
// 8-pulse thermometer codes: level k of a (p+1)-level quantizer over [-1, 1]
// corresponds to k positive pulses out of p, giving value (2k - p) / p.
//
// QuantTanh is the fused module used by the BWNN: tanh followed by the
// uniform quantizer, with a straight-through estimator for the quantizer
// (gradient of tanh only).
#pragma once

#include "nn/module.hpp"

namespace gbo::quant {

/// Uniform symmetric quantizer over [-1, 1] with `levels` levels
/// (levels >= 2). Values outside [-1, 1] are clamped first.
float quantize_value(float x, std::size_t levels);

/// Elementwise quantization of a whole tensor.
Tensor quantize(const Tensor& x, std::size_t levels);

/// The discrete level index in [0, levels-1] for a value in [-1, 1].
/// Throws std::domain_error for NaN.
std::size_t level_index(float x, std::size_t levels);

/// Tanh + uniform quantization with STE.
///
/// The output quantize_value(std::tanh(x), levels) is a monotone step
/// function of x, so the constructor finds its levels-1 step thresholds
/// once (bisection over the ordered float bit patterns, with the same
/// std::tanh and quantize_value) and the hot loops count the thresholds at
/// or below x instead of calling libm: bitwise the same output for every
/// float, NaN included. forward also fills the STE cache, tanh(x), through
/// nn::tanh_kernel(), the exact vector port of libm's tanhf (DESIGN.md
/// §12).
class QuantTanh : public gbo::nn::Module {
 public:
  explicit QuantTanh(std::size_t levels = 9);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, gbo::nn::EvalContext& ctx) const override;
  std::string kind() const override { return "QuantTanh"; }

  std::size_t levels() const { return levels_; }

  /// thresholds()[j-1] is the least float x whose output is level >= j.
  const std::vector<float>& thresholds() const { return thresholds_; }

  /// std::tanh(x) of the last forward's input: the STE backward's y.
  const Tensor& cached_tanh() const { return cached_tanh_; }

 private:
  /// q[i] = quantize_value(std::tanh(x[i]), levels_) by threshold count;
  /// x and q must not overlap.
  void quantize_tanh(const float* __restrict x, float* __restrict q,
                     std::size_t n) const;

  std::size_t levels_;
  std::vector<float> thresholds_;
  Tensor cached_tanh_;
};

}  // namespace gbo::quant
