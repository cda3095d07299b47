#include "crossbar/mvm_engine.hpp"

#include "nn/eval_context.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace gbo::xbar {

MvmEngine::MvmEngine(const Tensor& binary_weight, MvmConfig cfg, Rng rng)
    : cfg_(cfg),
      binary_weight_(binary_weight),
      array_(binary_weight, cfg.device, cfg.tile_cols, rng.fork(1)),
      rng_(rng.fork(2)) {
  scale_ = array_.weight_scale();
  norm_weights_ = normalized_pulse_weights();
}

Tensor MvmEngine::encode_and_snap(const Tensor& activations) const {
  Tensor snapped(activations.shape());
  const float* a = activations.data();
  float* s = snapped.data();
  const std::size_t n = activations.numel();
  const std::size_t pulses = cfg_.spec.num_pulses;
  // Scheme branch hoisted out of the element loop so each arm is a tight,
  // inlinable kernel over the batch.
  if (cfg_.spec.scheme == enc::Scheme::kThermometer) {
    for (std::size_t i = 0; i < n; ++i) s[i] = enc::thermometer_snap(a[i], pulses);
  } else {
    for (std::size_t i = 0; i < n; ++i) s[i] = enc::bit_slicing_snap(a[i], pulses);
  }
  return snapped;
}

enc::PulseTrain MvmEngine::encode_train(const Tensor& activations) const {
  if (activations.ndim() != 2)
    throw std::invalid_argument("MvmEngine: expected [N, in] activations, got " +
                                activations.shape_str());
  const std::size_t num_pulses = cfg_.spec.num_pulses;
  GBO_TRACE_SPAN(obs::EventType::kPulseEncode, activations.dim(0),
                 static_cast<std::uint16_t>(num_pulses),
                 num_pulses * activations.numel());
  return cfg_.spec.scheme == enc::Scheme::kThermometer
             ? enc::thermometer_encode(activations, num_pulses)
             : enc::bit_slicing_encode(activations, num_pulses);
}

void MvmEngine::encode_codes(const Tensor& activations,
                             std::uint32_t* codes) const {
  const std::size_t num_pulses = cfg_.spec.num_pulses;
  GBO_TRACE_SPAN(obs::EventType::kPulseEncode, activations.dim(0),
                 static_cast<std::uint16_t>(num_pulses),
                 num_pulses * activations.numel());
  const float* a = activations.data();
  const std::size_t n = activations.numel();
  if (cfg_.spec.scheme == enc::Scheme::kThermometer) {
    for (std::size_t i = 0; i < n; ++i)
      codes[i] = static_cast<std::uint32_t>(enc::thermometer_level(a[i], num_pulses));
  } else {
    for (std::size_t i = 0; i < n; ++i)
      codes[i] = static_cast<std::uint32_t>(enc::bit_slicing_level(a[i], num_pulses));
  }
}

std::vector<float> MvmEngine::normalized_pulse_weights() const {
  const auto weights = cfg_.spec.pulse_weights();
  double wsum = 0.0;
  for (double w : weights) wsum += w;
  std::vector<float> w(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i)
    w[i] = static_cast<float>(weights[i] / wsum);
  return w;
}

Tensor MvmEngine::run_pulse_level(const Tensor& activations) {
  return run_pulse_level(activations, {&rng_, 1});
}

Tensor MvmEngine::run_pulse_level(const Tensor& activations,
                                  std::span<Rng> streams,
                                  ScratchArena* arena) const {
  if (activations.ndim() != 2 || activations.dim(1) != array_.cols())
    throw std::invalid_argument("MvmEngine: expected [N, in] activations, got " +
                                activations.shape_str());
  const std::size_t batch = activations.dim(0);
  const std::size_t group = nn::stream_rows(batch, streams.size());
  const std::size_t out_n = array_.rows();
  const std::size_t num_pulses = cfg_.spec.num_pulses;
  // An empty pulse train (num_pulses == 0) contributes no current: the
  // decoded result is exactly zero, not a default-constructed tensor.
  if (num_pulses == 0) {
    Tensor zero = arena ? arena->take({batch, out_n}) : Tensor({batch, out_n});
    if (arena) zero.fill(0.0f);
    return zero;
  }

  const std::size_t bn = batch * out_n;
  const bool has_sigma = cfg_.sigma > 0.0;

  // Pre-draw every stochastic term in exactly the order the per-pulse
  // reference path consumes its rng: for each pulse, first the crossbar's
  // read noise, then the Eq. 1 output noise (the latter cast to float at
  // draw time, matching the reference's cast at add time). This frees the
  // fused sweep below to visit pulses in weight-tile order while staying
  // bitwise identical to run_pulse_level_reference for the same seed.
  // Each stream replays that order for its own run of `group` rows
  // (DESIGN.md §6), its draws landing in the run's contiguous slice of the
  // pulse-major buffers, so the sweep below is oblivious to how the noise
  // was drawn.
  // The code and draw buffers are the pulse path's transients; with an
  // arena they are bump scratch instead of per-call vectors.
  const std::size_t stride = array_.read_noise_draws(batch);
  const std::size_t group_rn = array_.read_noise_draws(group);
  const std::size_t group_bn = group * out_n;
  ArenaFrame frame(arena);
  std::vector<std::uint32_t> codes_own;
  std::vector<double> read_noise_own;
  std::vector<float> out_noise_own;
  std::uint32_t* codes;
  double* read_noise;
  float* out_noise;
  if (arena) {
    codes = arena->alloc_u32(activations.numel());
    read_noise = arena->alloc_doubles(stride * num_pulses);
    out_noise = arena->alloc_floats(has_sigma ? num_pulses * bn : 0);
  } else {
    codes_own.resize(activations.numel());
    read_noise_own.resize(stride * num_pulses);
    out_noise_own.resize(has_sigma ? num_pulses * bn : 0);
    codes = codes_own.data();
    read_noise = read_noise_own.data();
    out_noise = out_noise_own.data();
  }
  // One level code per activation element stands for the whole pulse
  // train: pulse tensors are never built on this path.
  encode_codes(activations, codes);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    Rng& rng = streams[s];
    for (std::size_t i = 0; i < num_pulses; ++i) {
      if (stride > 0)
        array_.fill_read_noise(group, rng,
                               read_noise + i * stride + s * group_rn);
      if (has_sigma)
        rng.fill_normal(out_noise + i * bn + s * group_bn, group_bn, 0.0,
                        cfg_.sigma);
    }
  }

  const std::vector<float>& w = norm_weights_;

  // One fused sweep of the crossbar for all pulses; the sink decodes each
  // element in place (peripheral scale, Eq. 1 noise, weighted pulse sum —
  // the same float operations, in the same order, as the reference path's
  // per-tensor loops), so no per-pulse output tensors are ever
  // materialized.
  Tensor out = arena ? arena->take({batch, out_n}) : Tensor({batch, out_n});
  float* po = out.data();
  const float* on = out_noise;
  const CrossbarArray::PulseSink decode =
      [&](std::size_t idx, const float* per_pulse) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < num_pulses; ++p) {
          float y = per_pulse[p];
          y *= scale_;
          if (has_sigma) y += on[p * bn + idx];
          if (p == 0) {
            acc = y * w[0];
          } else {
            acc += w[p] * y;
          }
        }
        po[idx] = acc;
      };
  const CrossbarArray::PulseCodes x{cfg_.spec, batch, codes};
  array_.mvm_pulse_train(x, stride > 0 ? read_noise : nullptr, decode);
  return out;
}

Tensor MvmEngine::run_pulse_level_reference(const Tensor& activations) {
  return run_pulse_level_reference(activations, rng_);
}

Tensor MvmEngine::run_pulse_level_reference(const Tensor& activations,
                                            Rng& rng) const {
  enc::PulseTrain train = encode_train(activations);
  if (train.pulses.empty()) return Tensor({activations.dim(0), array_.rows()});

  const std::vector<float>& w = norm_weights_;

  Tensor out;
  for (std::size_t i = 0; i < train.pulses.size(); ++i) {
    // One crossbar read per pulse, in sign-current domain.
    Tensor y = array_.mvm_pulse(train.pulses[i], rng);
    // Peripheral scaling back to the weight domain, then the Eq. 1 noise.
    ops::scale_inplace(y, scale_);
    if (cfg_.sigma > 0.0) {
      float* p = y.data();
      for (std::size_t j = 0; j < y.numel(); ++j)
        p[j] += static_cast<float>(rng.normal(0.0, cfg_.sigma));
    }
    if (i == 0) {
      out = ops::scale(y, w[i]);
    } else {
      ops::axpy_inplace(out, w[i], y);
    }
  }
  return out;
}

Tensor MvmEngine::run_analytic(const Tensor& activations) {
  return run_analytic(activations, rng_);
}

Tensor MvmEngine::run_analytic(const Tensor& activations, Rng& rng) const {
  Tensor snapped = encode_and_snap(activations);
  // Expected MVM uses the *effective* (post-programming) weights so the
  // analytic mode reproduces frozen device variation too, then adds the
  // closed-form accumulated Gaussian noise (Eq. 2 / Eq. 3).
  Tensor out = ops::matmul_bt(snapped, array_.effective_weight());
  ops::scale_inplace(out, scale_);
  if (cfg_.sigma > 0.0) {
    const double std = cfg_.sigma * std::sqrt(cfg_.spec.noise_variance_factor());
    ops::add_normal(out.data(), out.numel(), rng, std);
  }
  return out;
}

Tensor MvmEngine::run_ideal(const Tensor& activations) const {
  return ops::matmul_bt(encode_and_snap(activations), binary_weight_);
}

}  // namespace gbo::xbar
