#include "encoding/bit_slicing.hpp"

#include <cmath>
#include <stdexcept>

namespace gbo::enc {

std::size_t bit_slicing_level(float value, std::size_t num_pulses) {
  if (num_pulses == 0 || num_pulses >= 31)
    throw std::invalid_argument("bit_slicing_level: bad pulse count");
  value = value > 1.0f ? 1.0f : (value < -1.0f ? -1.0f : value);
  const float max_level = static_cast<float>((1u << num_pulses) - 1);
  const long idx = std::lround((value + 1.0f) * 0.5f * max_level);
  return static_cast<std::size_t>(idx < 0 ? 0 : idx);
}

float bit_slicing_snap(float value, std::size_t num_pulses) {
  const float max_level = static_cast<float>((1u << num_pulses) - 1);
  return 2.0f * static_cast<float>(bit_slicing_level(value, num_pulses)) / max_level - 1.0f;
}

PulseTrain bit_slicing_encode(const Tensor& activations, std::size_t num_pulses) {
  PulseTrain train;
  train.spec = EncodingSpec{Scheme::kBitSlicing, num_pulses};
  train.pulses.assign(num_pulses, Tensor(activations.shape()));
  std::vector<Tensor>& pulses = train.pulses;
  const float* a = activations.data();
  for (std::size_t j = 0; j < activations.numel(); ++j) {
    const std::size_t level = bit_slicing_level(a[j], num_pulses);
    for (std::size_t i = 0; i < num_pulses; ++i) {
      const bool bit = (level >> i) & 1u;
      pulses[i][j] = bit ? 1.0f : -1.0f;
    }
  }
  return train;
}

}  // namespace gbo::enc
