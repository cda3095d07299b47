// Device/circuit-level non-ideality model for the binary crossbar.
//
// The paper abstracts all of this into output Gaussian noise (Eq. 1); this
// module provides the richer physical model used by the pulse-level engine
// when configured:
//   * programming variation: each cell's conductance deviates
//     log-normally from its nominal on/off level (device-to-device);
//   * stuck-at faults: a fraction of cells is frozen at on or off;
//   * read noise: per-read Gaussian current noise (cycle-to-cycle);
//   * ADC: uniform quantization of the column current to `adc_bits`
//     over a configurable full-scale range;
//   * retention drift (see crossbar/drift.hpp).
#pragma once

#include "common/rng.hpp"

#include <cstdint>

namespace gbo::xbar {

/// How a signed binary weight becomes conductances.
///   kDifferential — two cells per weight (G+, G−), analog subtraction at
///     the TIA (ISAAC-style). Full ±(g_on − g_off) signal swing.
///   kOffset — one cell per weight (+1 → g_on, −1 → g_off) plus one shared
///     mid-conductance reference column per tile whose current is
///     subtracted digitally (PRIME-style). Halves the cell count but also
///     halves the per-cell signal swing (the decode multiplies by
///     2/(g_on − g_off)), and the reference read's noise is shared — i.e.
///     correlated — across every output of the tile.
enum class WeightMapping : std::uint8_t { kDifferential = 0, kOffset = 1 };

struct DeviceConfig {
  WeightMapping mapping = WeightMapping::kDifferential;
  double g_on = 1.0;             // nominal on conductance (normalized units)
  double g_off = 0.0;            // nominal off conductance
  double program_variation = 0.0;  // lognormal sigma of programmed conductance
  double stuck_on_rate = 0.0;    // fraction of cells stuck at g_on
  double stuck_off_rate = 0.0;   // fraction of cells stuck at g_off
  double read_noise_sigma = 0.0; // per-read Gaussian current noise per column
  int adc_bits = 0;              // 0 = ideal (no ADC quantization)
  double adc_full_scale = 0.0;   // symmetric range [-fs, fs]; 0 = auto (rows)

  // Retention drift (see crossbar/drift.hpp): each cell's conductance
  // decays as (t/t0)^(-ν) with a per-cell ν ~ N(nu, nu_sigma) sampled at
  // programming time. drift_time is the read-out age in the same units as
  // drift_t0; 0 disables the decay (the ν draw still occurs whenever the ν
  // parameters are nonzero, so time sweeps that rebuild the array with the
  // same seed see identical per-cell exponents).
  double drift_nu = 0.0;         // mean drift exponent ν
  double drift_nu_sigma = 0.0;   // device-to-device std of ν
  double drift_t0 = 1.0;         // reference time
  double drift_time = 0.0;       // age at read-out; 0 = fresh array

  bool drift_enabled() const { return drift_nu > 0.0 || drift_nu_sigma > 0.0; }

  /// True when every non-ideality is off (pure Eq. 1 behaviour).
  bool ideal() const {
    return program_variation == 0.0 && stuck_on_rate == 0.0 &&
           stuck_off_rate == 0.0 && read_noise_sigma == 0.0 && adc_bits == 0 &&
           !(drift_enabled() && drift_time > 0.0);
  }
};

/// Samples the programmed conductance of one cell whose target is
/// `nominal` (g_on or g_off), applying programming variation and faults.
double program_cell(const DeviceConfig& cfg, double nominal, Rng& rng);

/// Applies ADC quantization to a column current.
double adc_quantize(const DeviceConfig& cfg, double current, double full_scale);

}  // namespace gbo::xbar
