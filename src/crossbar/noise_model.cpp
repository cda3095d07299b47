#include "crossbar/noise_model.hpp"

#include "tensor/ops.hpp"

namespace gbo::xbar {

void GaussianNoiseHook::snap_input(Tensor& x) const {
  if (spec_.scheme == enc::Scheme::kThermometer) {
    // PLA re-encoding: activations were quantized for base_pulses_ levels;
    // a different pulse count can only realize its own level grid. Snapped
    // in place — the last per-request temporary on the serving hot path.
    if (spec_.num_pulses != base_pulses_)
      enc::pla_approximate_inplace(x, spec_.num_pulses);
  } else {
    // Bit slicing realizes a 2^p-level grid, which does not contain the
    // thermometer training grid exactly; snap to the nearest code.
    float* p = x.data();
    for (std::size_t i = 0; i < x.numel(); ++i)
      p[i] = enc::bit_slicing_snap(p[i], spec_.num_pulses);
  }
}

void GaussianNoiseHook::add_output_noise(Tensor& out, Rng& rng) const {
  if (sigma_ <= 0.0) return;
  const double std = sigma_ * std::sqrt(spec_.noise_variance_factor());
  ops::add_normal(out.data(), out.numel(), rng, std);
}

void GaussianNoiseHook::on_input(Tensor& x) {
  if (!enabled_) return;
  snap_input(x);
}

void GaussianNoiseHook::on_forward(Tensor& out) {
  if (!enabled_) return;
  add_output_noise(out, rng_);
}

void GaussianNoiseHook::infer_input(Tensor& x) const {
  if (!enabled_) return;
  snap_input(x);
}

void GaussianNoiseHook::infer_output(Tensor& out,
                                     std::span<Rng> streams) const {
  if (!enabled_ || sigma_ <= 0.0) return;  // no draws, no stream check
  nn::stream_rows(out.dim(0), streams.size());  // validates the split
  const double std = sigma_ * std::sqrt(spec_.noise_variance_factor());
  const std::size_t run = out.numel() / streams.size();
  float* p = out.data();
  // Stream s draws its rows' normals in element order — with one stream,
  // exactly add_output_noise's single draw over the whole tensor.
  for (std::size_t s = 0; s < streams.size(); ++s)
    ops::add_normal(p + s * run, run, streams[s], std);
}

}  // namespace gbo::xbar
