#include "gbo/noise_mixture.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gbo::opt {

NoiseMixture::NoiseMixture(const std::vector<double>& stds) {
  stds_.reserve(stds.size());
  for (double s : stds) stds_.push_back(static_cast<float>(s));
}

void NoiseMixture::draw(Tensor& out, Rng& rng, const float* coeffs) {
  n_ = out.numel();
  eps_.resize(stds_.size() * n_);
  float* o = out.data();
  // Blocks small enough that each ε block is still in cache for its axpy.
  constexpr std::size_t kBlock = 4096;
  for (std::size_t k = 0; k < stds_.size(); ++k) {
    float* e = eps_.data() + k * n_;
    for (std::size_t b = 0; b < n_; b += kBlock) {
      const std::size_t len = std::min(kBlock, n_ - b);
      rng.fill_normal(e + b, len, 0.0, stds_[k]);
      if (coeffs) {
        const float a = coeffs[k];
        for (std::size_t i = b; i < b + len; ++i) o[i] += a * e[i];
      }
    }
  }
  drawn_ = true;
}

void NoiseMixture::add(Tensor& out, std::size_t k, float coeff) const {
  float* o = out.data();
  const float* e = eps_.data() + k * n_;
  for (std::size_t i = 0; i < n_; ++i) o[i] += coeff * e[i];
}

std::vector<double> NoiseMixture::dots(const Tensor& grad) const {
  if (!drawn_) throw std::logic_error("NoiseMixture: backward without forward");
  if (grad.numel() != n_)
    throw std::logic_error("NoiseMixture: gradient size differs from the draw");
  const std::size_t m = stds_.size();
  std::vector<double> c(m, 0.0);
  const float* g = grad.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const double gi = g[i];
    for (std::size_t k = 0; k < m; ++k) c[k] += gi * eps_[k * n_ + i];
  }
  return c;
}

std::vector<double> softmax(const nn::Param& lambda) {
  const std::size_t m = lambda.value.numel();
  std::vector<double> a(m);
  double mx = lambda.value[0];
  for (std::size_t k = 1; k < m; ++k)
    mx = std::max(mx, static_cast<double>(lambda.value[k]));
  double denom = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    a[k] = std::exp(static_cast<double>(lambda.value[k]) - mx);
    denom += a[k];
  }
  for (double& v : a) v /= denom;
  return a;
}

void accumulate_lambda_grad(nn::Param& lambda, const std::vector<double>& w,
                            const std::vector<double>& c, double scale) {
  double mean_c = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) mean_c += w[k] * c[k];
  for (std::size_t j = 0; j < w.size(); ++j)
    lambda.grad[j] += static_cast<float>(w[j] * (c[j] - mean_c) / scale);
}

}  // namespace gbo::opt
