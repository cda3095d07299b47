// Thermometer coding (Soliman et al., IEDM'20): the number of +1 pulses is
// proportional to the representation level. p pulses represent p+1 levels;
// level k decodes to (2k - p) / p.
#pragma once

#include "encoding/pulse_train.hpp"

namespace gbo::enc {

/// Level index (count of +1 pulses) for a value in [-1, 1] under p pulses:
/// round((v + 1)/2 · p), half up, with values clamped to [-1, 1] and NaN at
/// level 0. Bitwise equal to std::lround of the same float product, without
/// the libm call: the fraction t − trunc(t) of a float t ≥ 0 is exact, so
/// comparing it with 0.5 rounds exactly as lround does. Inline because the
/// pulse-level encoders and the PLA snaps call it once per element.
inline std::size_t thermometer_level(float value, std::size_t num_pulses) {
  value = value > 1.0f ? 1.0f : (value < -1.0f ? -1.0f : value);
  const float t = (value + 1.0f) * 0.5f * static_cast<float>(num_pulses);
  if (!(t >= 0.0f)) return 0;  // NaN
  const auto whole = static_cast<std::size_t>(t);
  return whole + (t - static_cast<float>(whole) >= 0.5f ? 1 : 0);
}

/// Encodes a tensor of activations in [-1, 1]. Values are snapped to the
/// nearest representable level first (identical to the 9-level activation
/// quantizer when num_pulses == 8).
PulseTrain thermometer_encode(const Tensor& activations, std::size_t num_pulses);

/// The exact value a thermometer train of p pulses can represent closest to
/// `value` — used to quantify PLA approximation error.
inline float thermometer_snap(float value, std::size_t num_pulses) {
  const float p = static_cast<float>(num_pulses);
  return (2.0f * static_cast<float>(thermometer_level(value, num_pulses)) - p) / p;
}

}  // namespace gbo::enc
