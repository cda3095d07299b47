// Pointwise activation layers.
//
// The paper's BWNN uses Tanh to bound activations in [-1, 1] ahead of the
// multi-level quantizer (Section II-A). ReLU and HardTanh are provided for
// ablations and for the MLP example.
//
// tanh itself runs through one CPUID-dispatched registry (TanhKernel): the
// scalar entry calls std::tanh per element, and the AVX-512F entry ports
// this libm's own tanhf/expm1f so it writes the same bits (DESIGN.md §12).
// Tanh and QuantTanh's STE cache both map through it.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace gbo::nn {

/// One registry entry of the exact tanh map: map writes y[i] =
/// std::tanh(x[i]) for every i < n, bitwise and NaN payload included. y may
/// be x itself but must not otherwise overlap it.
struct TanhKernel {
  const char* name;
  void (*map)(const float* x, float* y, std::size_t n);
};

/// The entry selected once per process: the best CPUID-supported entry
/// that passes tanh_kernel_exact, or the scalar entry under
/// GBO_FORCE_SCALAR_KERNELS=1.
const TanhKernel& tanh_kernel();

/// Every entry this CPU can run, scalar first and the best ISA last.
const std::vector<const TanhKernel*>& tanh_kernels();

/// The |x| at which tanhf or the expm1f it calls changes branch: 2^-24
/// (below it the vector entry defers to libm), expm1f's 0.5·ln2 and
/// 1.5·ln2 reduction bounds (halved: tanhf passes 2|x|), 1, 22, and the
/// rounding bounds 2|x| = (k ± 1/2)·ln2 of expm1f's k for k = 2..63.
std::vector<float> tanh_branch_points();

/// The dispatch probe: true iff kern.map equals std::tanh bitwise on every
/// float within ±64 ulps of each (positive) branch point and on a
/// log-spaced sweep of [2^-24, 22) with alternating signs. A libm whose
/// tanhf is another algorithm fails it, so the port is only dispatched
/// where it reproduces libm.
bool tanh_kernel_exact(const TanhKernel& kern);

class Tanh : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::string kind() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
};

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::string kind() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

/// Clamp to [-1, 1]; gradient 1 inside the interval, 0 outside.
class HardTanh : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::string kind() const override { return "HardTanh"; }

 private:
  Tensor cached_input_;
};

/// Flattens [N, ...] to [N, prod(...)]; restores the shape in backward.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x, EvalContext& ctx) const override;
  std::string kind() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> cached_shape_;
};

}  // namespace gbo::nn
