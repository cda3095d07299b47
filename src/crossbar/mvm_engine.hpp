// Two-mode crossbar MVM engine.
//
// Pulse-level mode is the ground-truth simulation: activations are encoded
// into bipolar pulse trains, one crossbar read is issued per pulse with
// fresh N(0, σ²) output noise, and the weighted pulse results are decoded.
// Analytic mode computes the identical expected result (MVM of the snapped
// activations, scaled by the digital weight scale) plus one Gaussian sample
// with the closed-form accumulated variance — the distribution the paper
// derives in Eq. 2–4. test_mvm_equivalence.cpp verifies the two modes agree
// in mean and variance for both encodings across pulse counts.
#pragma once

#include "crossbar/crossbar_array.hpp"
#include "crossbar/noise_model.hpp"
#include "encoding/bit_slicing.hpp"
#include "encoding/thermometer.hpp"
#include "tensor/arena.hpp"

namespace gbo::xbar {

struct MvmConfig {
  enc::EncodingSpec spec;         // encoding for streaming the activations
  double sigma = 0.0;             // per-pulse output noise std (Eq. 1)
  DeviceConfig device;            // device non-idealities (default ideal)
  std::size_t tile_cols = 128;    // crossbar tile width
  /// Output-axis (bit-line) shard width for the pulse path: layers wider
  /// than this run as a fixed ascending sequence of column shards (one per
  /// mapper column-tile, xbar::column_shards), each a range-restricted
  /// crossbar sweep writing its disjoint output slice. Bitwise identical to
  /// the unsharded sweep — every element's arithmetic and noise lookup is
  /// keyed by global coordinates. 0 disables sharding.
  std::size_t shard_cols = 0;
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
  /// Each stochastic mode comes in two flavours: the classic one consuming
  /// the engine-owned stream (rng_), and a const overload drawing every
  /// stochastic term from a caller-supplied Rng — the stateless-inference
  /// variant, safe to call concurrently with distinct generators over one
  /// programmed array (the frozen device state is read-only). The const
  /// overload optionally routes its pre-drawn noise buffers and the output
  /// through a caller-owned scratch arena (serving workers; results are
  /// bitwise identical with and without one).
  Tensor run_pulse_level(const Tensor& activations);
  Tensor run_pulse_level(const Tensor& activations, Rng& rng,
                         ScratchArena* arena = nullptr) const;

  /// Per-sample stream variant (DESIGN.md §6): activations [N, in] with
  /// N = num_streams · g for some whole g (g > 1 when a conv layer feeds
  /// its per-sample patch rows through one call). Sample s's read and
  /// output noise is drawn from row_rngs[s] in exactly the order the
  /// single-stream overload draws it for a unit batch holding sample s
  /// alone, so fused stochastic micro-batches are bitwise row-equal to
  /// per-request execution at any batch composition. num_streams == 1 with
  /// rng == &row_rngs[0] degenerates to the overload above.
  Tensor run_pulse_level(const Tensor& activations, Rng* row_rngs,
                         std::size_t num_streams,
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
  /// Shared pulse-level body: draws per-stream noise (stream s covers
  /// batch/num_streams consecutive rows), then runs the fused batch-major
  /// sweep. Both public overloads funnel here; num_streams == 1 reproduces
  /// the historical single-stream draw order exactly.
  Tensor run_pulse_level_streams(const Tensor& activations, Rng* rngs,
                                 std::size_t num_streams,
                                 ScratchArena* arena) const;

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
