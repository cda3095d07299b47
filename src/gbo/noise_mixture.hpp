// The Eq. 5 per-layer noise mixture shared by GBO (gbo.hpp) and its
// Gumbel-softmax ablation (gumbel.hpp): one ε_k ~ N(0, std_k²) sample per
// scheme k over the MVM output, kept for the λ gradient
// c_k = <∂L/∂o, ε_k> (Eq. 7).
#pragma once

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "tensor/tensor.hpp"

#include <vector>

namespace gbo::opt {

class NoiseMixture {
 public:
  /// One scheme per entry of `stds`, the per-scheme noise std. Each std is
  /// rounded to float, as the ε draws have always taken it.
  explicit NoiseMixture(const std::vector<double>& stds);

  /// Draws ε_k over out's shape for every scheme, k-major: the stream order
  /// of one sequential fill per scheme. With coeffs (one per scheme), also
  /// adds coeffs[k]·ε_k to out for k = 0, 1, ... — draw and axpy run block
  /// by block, bitwise equal to a full draw then a full axpy per scheme.
  /// The ε buffer is reused across steps.
  void draw(Tensor& out, Rng& rng, const float* coeffs);

  /// out += coeff·ε_k of the last draw.
  void add(Tensor& out, std::size_t k, float coeff) const;

  /// c_k = <grad, ε_k> for every scheme in one pass over grad, each with
  /// its own double accumulator in element order. Throws std::logic_error
  /// before the first draw or when grad's size differs from the draw's.
  std::vector<double> dots(const Tensor& grad) const;

 private:
  std::vector<double> stds_;
  std::vector<float> eps_;  // [schemes][n]
  std::size_t n_ = 0;
  bool drawn_ = false;
};

/// α = softmax(λ), in double, max-subtracted.
std::vector<double> softmax(const nn::Param& lambda);

/// The softmax-Jacobian λ gradient of Eq. 7 from the mixture weights w and
/// the dot products c = NoiseMixture::dots():
///   λ.grad[j] += float(w_j (c_j - Σ_k w_k c_k) / scale).
void accumulate_lambda_grad(nn::Param& lambda, const std::vector<double>& w,
                            const std::vector<double>& c, double scale = 1.0);

}  // namespace gbo::opt
