// Bit slicing (Bojnordi & Ipek, HPCA'16): pulses carry the binary digits of
// the activation's level index; pulse i contributes with weight 2^i. p
// pulses represent 2^p levels; the bit-position weighting is what amplifies
// accumulated noise relative to thermometer coding (Eq. 2 vs Eq. 3).
#pragma once

#include "encoding/pulse_train.hpp"

namespace gbo::enc {

/// Level index in [0, 2^p - 1] for a value in [-1, 1].
std::size_t bit_slicing_level(float value, std::size_t num_pulses);

/// Encodes activations in [-1, 1] into bipolar bit-sliced pulses.
PulseTrain bit_slicing_encode(const Tensor& activations, std::size_t num_pulses);

/// Nearest representable value under p-pulse bit slicing.
float bit_slicing_snap(float value, std::size_t num_pulses);

}  // namespace gbo::enc
