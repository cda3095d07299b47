// Two-mode crossbar MVM engine.
//
// Pulse-level mode is the ground-truth simulation: activations are encoded
// into bipolar pulse trains, one crossbar read is issued per pulse with
// fresh N(0, σ²) output noise, and the weighted pulse results are decoded.
// Analytic mode computes the identical expected result (MVM of the snapped
// activations, scaled by the digital weight scale) plus one Gaussian sample
// with the closed-form accumulated variance — the distribution the paper
// derives in Eq. 2–4. test_mvm_equivalence.cpp verifies the two modes agree
// in mean and variance for both encodings across pulse counts. The
// stateless pulse entry draws from a span of streams, one per run of
// batch rows (EvalContext::streams(), DESIGN.md §6).
#pragma once

#include "crossbar/crossbar_array.hpp"
#include "crossbar/noise_model.hpp"
#include "encoding/bit_slicing.hpp"
#include "encoding/thermometer.hpp"
#include "tensor/arena.hpp"

#include <span>

namespace gbo::xbar {

struct MvmConfig {
  enc::EncodingSpec spec;         // encoding for streaming the activations
  double sigma = 0.0;             // per-pulse output noise std (Eq. 1)
  DeviceConfig device;            // device non-idealities (default ideal)
  std::size_t tile_cols = 128;    // crossbar tile width
};

class MvmEngine {
 public:
  /// Programs a crossbar from the binary weight [out, in] (entries ±s).
  /// `rng` seeds both programming-time variation and read-time noise.
  MvmEngine(const Tensor& binary_weight, MvmConfig cfg, Rng rng);

  /// Ground truth: pulse-level execution. activations: [N, in] values in
  /// [-1, 1]; returns [N, out] decoded currents scaled back to the weight
  /// domain (times s). Internally one level code per element stands for
  /// the whole pulse train, and one fused crossbar sweep serves every pulse
  /// (CrossbarArray::mvm_pulse_train); bitwise identical to
  /// run_pulse_level_reference for the same seed, at any thread count.
  /// An empty pulse train yields an explicit zero [N, out] result.
  ///
  ///
  /// The mutable overload consumes the engine-owned stream (rng_). The
  /// const overload is the stateless-inference entry, safe to call
  /// concurrently with distinct streams over one programmed array (the
  /// frozen device state is read-only): stream s of `streams` covers the
  /// s-th run of N / streams.size() consecutive rows (nn::stream_rows; a
  /// conv layer's per-sample patch rows form one run) and draws that run's
  /// read and output noise in exactly the order one stream draws it for a
  /// batch holding only those rows. So one stream is the classic per-trial
  /// draw, and one stream per request makes a fused micro-batch bitwise
  /// row-equal to per-request execution (DESIGN.md §6). Pre-drawn noise
  /// buffers and the output optionally recycle through a caller-owned
  /// scratch arena (serving workers; bitwise identical without one).
  Tensor run_pulse_level(const Tensor& activations);
  Tensor run_pulse_level(const Tensor& activations, std::span<Rng> streams,
                         ScratchArena* arena = nullptr) const;

  /// Retained pre-fusion scalar path (one crossbar read per pulse). Kept as
  /// the equivalence oracle for tests and as a debugging fallback; consumes
  /// its rng in the same order as run_pulse_level.
  Tensor run_pulse_level_reference(const Tensor& activations);
  Tensor run_pulse_level_reference(const Tensor& activations, Rng& rng) const;

  /// Fast path: exact expected MVM + equivalent accumulated Gaussian noise.
  Tensor run_analytic(const Tensor& activations);
  Tensor run_analytic(const Tensor& activations, Rng& rng) const;

  /// Noise-free reference (snapped activations, ideal weights).
  Tensor run_ideal(const Tensor& activations) const;

  const MvmConfig& config() const { return cfg_; }
  const CrossbarArray& array() const { return array_; }

 private:
  Tensor encode_and_snap(const Tensor& activations) const;
  /// Validates [N, in] shape and encodes per the configured scheme into
  /// pulse tensors (the reference path).
  enc::PulseTrain encode_train(const Tensor& activations) const;
  /// One level code per element (enc::thermometer_level or
  /// enc::bit_slicing_level) into codes[0 .. activations.numel()): the
  /// fused path's input format (CrossbarArray::PulseCodes).
  void encode_codes(const Tensor& activations, std::uint32_t* codes) const;
  /// Per-pulse decode weights w_i / Σ w_i as float.
  std::vector<float> normalized_pulse_weights() const;

  MvmConfig cfg_;
  Tensor binary_weight_;  // ±s as given
  float scale_ = 1.0f;
  CrossbarArray array_;
  Rng rng_;
  // Decode weights cached at construction (cfg_ is frozen after): the
  // pulse hot path must not re-derive them per request.
  std::vector<float> norm_weights_;
};

}  // namespace gbo::xbar
