#include "crossbar/device_model.hpp"

#include <algorithm>
#include <cmath>

namespace gbo::xbar {

double program_cell(const DeviceConfig& cfg, double nominal, Rng& rng) {
  // Sample the drift exponent first, unconditionally on drift_time, so a
  // time sweep that rebuilds the array with the same seed draws the same ν
  // for every cell (the stream stays aligned; see DeviceConfig).
  double nu = 0.0;
  if (cfg.drift_enabled()) {
    nu = std::max(0.0, cfg.drift_nu_sigma > 0.0
                           ? rng.normal(cfg.drift_nu, cfg.drift_nu_sigma)
                           : cfg.drift_nu);
  }

  // Faults override programming entirely (a stuck filament still drifts).
  const double u = rng.uniform();
  double g;
  if (u < cfg.stuck_on_rate) {
    g = cfg.g_on;
  } else if (u < cfg.stuck_on_rate + cfg.stuck_off_rate) {
    g = cfg.g_off;
  } else if (cfg.program_variation <= 0.0 || nominal == 0.0) {
    // Lognormal multiplicative variation around the nominal level; the off
    // state (0 conductance) stays 0 — there is nothing to multiply.
    g = nominal;
  } else {
    g = nominal * std::exp(rng.normal(0.0, cfg.program_variation));
  }

  if (nu > 0.0 && cfg.drift_time > cfg.drift_t0 && cfg.drift_t0 > 0.0) {
    g *= std::pow(cfg.drift_time / cfg.drift_t0, -nu);
  }
  return g;
}

double adc_quantize(const DeviceConfig& cfg, double current, double full_scale) {
  if (cfg.adc_bits <= 0) return current;
  const double fs = cfg.adc_full_scale > 0.0 ? cfg.adc_full_scale : full_scale;
  if (fs <= 0.0) return current;
  const double clamped = std::clamp(current, -fs, fs);
  const double levels = static_cast<double>((1ll << cfg.adc_bits) - 1);
  const double code = std::round((clamped + fs) / (2.0 * fs) * levels);
  return code / levels * 2.0 * fs - fs;
}

}  // namespace gbo::xbar
