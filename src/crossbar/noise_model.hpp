// Crossbar output-noise models (paper Eq. 1–4).
//
// The paper folds all crossbar non-idealities into additive Gaussian noise
// on the MVM output current, applied once per pulse. GaussianNoiseHook is
// the analytic-mode realization used for noisy evaluation and NIA training:
// it adds a single Gaussian sample with the encoding's accumulated variance
// σ² · Σw_i²/(Σw_i)² instead of looping over pulses — distributionally
// identical (both are zero-mean Gaussians of the same variance; verified by
// the pulse-vs-analytic property tests).
#pragma once

#include "common/rng.hpp"
#include "encoding/bit_slicing.hpp"
#include "encoding/pla.hpp"
#include "quant/quant_layers.hpp"

namespace gbo::xbar {

/// Analytic crossbar-noise hook for one layer.
///
/// Also applies the encoding-side activation re-quantization: with a PLA
/// pulse count n != base p, the layer input can only take n+1 thermometer
/// levels, so inputs are snapped before the MVM (the PLA approximation
/// error of §III-B).
class GaussianNoiseHook : public quant::MvmNoiseHook {
 public:
  GaussianNoiseHook(Rng rng, double sigma, enc::EncodingSpec spec,
                    std::size_t base_pulses = 8)
      : rng_(rng), sigma_(sigma), spec_(spec), base_pulses_(base_pulses) {}

  void set_sigma(double sigma) { sigma_ = sigma; }
  double sigma() const { return sigma_; }

  void set_spec(enc::EncodingSpec spec) { spec_ = spec; }
  const enc::EncodingSpec& spec() const { return spec_; }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Snaps inputs to the levels representable by the active encoding when it
  /// differs from the base (PLA re-encoding).
  void on_input(Tensor& x) override;

  /// Adds N(0, σ² · variance_factor) to every output element.
  void on_forward(Tensor& out) override;

  /// Stateless counterparts (Module::infer path): identical transforms, the
  /// noise drawn from the context's streams instead of the member
  /// generator — per stream, the same draws on_forward takes for its rows.
  /// Const, so one hook serves concurrent trial contexts.
  void infer_input(Tensor& x) const override;
  void infer_output(Tensor& out, std::span<Rng> streams) const override;

  /// Draws from the context streams only when enabled with sigma > 0.
  bool stochastic() const override { return enabled_ && sigma_ > 0.0; }

 private:
  /// Shared bodies; both execution paths run exactly these float ops.
  void snap_input(Tensor& x) const;
  void add_output_noise(Tensor& out, Rng& rng) const;

  Rng rng_;
  double sigma_;
  enc::EncodingSpec spec_;
  std::size_t base_pulses_;
  bool enabled_ = true;
};

}  // namespace gbo::xbar
