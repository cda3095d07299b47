// Pulse Length Approximation (PLA, paper §III-B).
//
// GBO's ensemble strategy only supports integer multiples of the base pulse
// count (8, 16, 24, ...). PLA enables any pulse count n by re-encoding the
// base thermometer level at n pulses: the value is approximated by the
// nearest level representable with n pulses, which in hardware amounts to
// adding/removing pulses toward -1 or +1 (the values deep-layer activations
// concentrate on after BN + Tanh). The residual |snap(v, n) - v| is the PLA
// approximation error, and it is not negligible: on the prepared VGG-9
// checkpoint with the noise off (σ = 0, full test split) it costs 3.1
// accuracy points for the GBO schedule [6,6,8,10,4,8,14], 5.9 for PLA-12
// and 48.5 for PLA-4 against Baseline-8. Only the dyadic counts (8, 16),
// whose grids contain the 9 base levels, lose nothing.
#pragma once

#include "encoding/thermometer.hpp"

namespace gbo::enc {

/// Re-encodes a base-quantized activation tensor at `target_pulses`
/// thermometer pulses. Returned train decodes to the PLA-approximated
/// values.
PulseTrain pla_encode(const Tensor& activations, std::size_t target_pulses);

/// The PLA-approximated activation tensor (what pla_encode decodes to):
/// every value snapped to the nearest of the target_pulses+1 levels.
Tensor pla_approximate(const Tensor& activations, std::size_t target_pulses);

/// In-place variant: the snap is elementwise, so the serving hot path
/// re-quantizes without the temporary copy (bitwise identical results).
void pla_approximate_inplace(Tensor& activations, std::size_t target_pulses);

/// Statistics of the PLA approximation error for a given tensor.
struct PlaErrorStats {
  double mean_abs_error = 0.0;
  double max_abs_error = 0.0;
  double rms_error = 0.0;
};
PlaErrorStats pla_error(const Tensor& activations, std::size_t target_pulses);

/// Maps a pulse scaling factor n ∈ Ω (e.g. 0.75) and base pulse count p to
/// the realized pulse length round(n * p); PLA makes non-integer products
/// realizable. Result is never 0 (clamped to 1).
std::size_t scaled_pulse_count(double scale, std::size_t base_pulses);

}  // namespace gbo::enc
