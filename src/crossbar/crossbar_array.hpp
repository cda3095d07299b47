// Tiled binary memristive crossbar array.
//
// A weight matrix W ∈ {-s, +s}^{out × in} is mapped onto differential
// conductance pairs: weight +s -> (G+ = g_on, G- = g_off), weight -s ->
// (G+ = g_off, G- = g_on). The column current for input voltage vector v is
// I_out = Σ_j (G+_{oj} - G-_{oj}) · v_j, so with ideal devices the array
// computes sign(W)·v exactly; the digital scale s and any decode
// normalization are applied by the peripheral (this class reports raw
// sign-domain currents).
//
// Arrays wider than `tile_cols` are split into column tiles whose partial
// currents are summed digitally after the per-tile ADC — the standard
// bit-partitioned mapping (ISAAC, PRIME). The fused pulse sweep
// (mvm_pulse_train) always covers every output line of the array; its
// read noise arrives pre-drawn, so the caller decides which stream draws
// which batch row (MvmEngine, DESIGN.md §6).
#pragma once

#include "crossbar/device_model.hpp"
#include "encoding/pulse_train.hpp"
#include "tensor/tensor.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace gbo::xbar {

class CrossbarArray {
 public:
  /// Programs the array from a binary weight matrix [out, in]; entries must
  /// be ±s for a single s (validated). Device non-idealities are sampled
  /// once at programming time (device-to-device variation is frozen, as on
  /// real hardware).
  CrossbarArray(const Tensor& binary_weight, DeviceConfig cfg,
                std::size_t tile_cols, Rng rng);

  std::size_t rows() const { return out_; }   // output lines
  std::size_t cols() const { return in_; }    // input lines
  std::size_t num_tiles() const { return num_tiles_; }

  /// Computes output currents for a batch of bipolar input vectors
  /// x: [N, in], entries in {-1, +1} (one pulse). Applies read noise and
  /// per-tile ADC per the device config; `rng` drives cycle-to-cycle noise.
  /// This is the scalar reference path; the fused mvm_pulse_train below is
  /// the fast path and must stay bitwise equivalent to it
  /// (tests/test_mvm_equivalence.cpp).
  Tensor mvm_pulse(const Tensor& x, Rng& rng) const;

  /// Number of read-noise RNG draws mvm_pulse consumes for one pulse of a
  /// batch of `batch` rows (0 when read noise is disabled).
  std::size_t read_noise_draws(std::size_t batch) const;

  /// Fills buf[0 .. read_noise_draws(batch)) with N(0, read_noise_sigma)
  /// draws in exactly the order mvm_pulse consumes them, so the fused path
  /// can replay one pulse's noise stream.
  void fill_read_noise(std::size_t batch, Rng& rng, double* buf) const;

  /// Per-element consumer for mvm_pulse_train: `idx` = n * rows() + o, and
  /// `per_pulse[p]` is exactly the value mvm_pulse(pulses[p], ...) would
  /// store at that element. May be invoked concurrently for distinct idx.
  using PulseSink =
      std::function<void(std::size_t idx, const float* per_pulse)>;

  /// A batch of inputs as one level code per element ([batch, in],
  /// row-major) instead of spec.num_pulses pulse tensors. Thermometer:
  /// pulse p fires +1 iff code > p (enc::thermometer_level). Bit slicing:
  /// pulse p fires +1 iff bit p of the code is set (enc::bit_slicing_level).
  struct PulseCodes {
    enc::EncodingSpec spec;
    std::size_t batch = 0;
    const std::uint32_t* codes = nullptr;
  };

  /// Fused multi-pulse MVM: computes what mvm_pulse returns for every
  /// pulse of `x` and streams each element's per-pulse results to `sink`
  /// instead of materializing one output tensor per pulse. `read_noise`
  /// must be null when read noise is disabled, else hold num_pulses *
  /// read_noise_draws(batch) values laid out pulse-major, each pulse's
  /// slice filled by fill_read_noise. Values handed to the sink are bitwise
  /// identical to calling mvm_pulse per pulse with the same noise stream,
  /// at any thread count.
  ///
  /// Two ways to the same bits (DESIGN.md §12). When the array holds the
  /// exactness certificate (exact_tile_sums()) and the code is a
  /// thermometer, pulses are nested, so a tile's current at pulse p is
  /// 2·Σ_{level_j > p} w_j − Σ_j w_j: one pass sorts the tile's columns into
  /// level buckets and running sums over the buckets give every pulse —
  /// O(in + n) per (row, output, tile) instead of O(in · n). The
  /// certificate makes every one of those sums exact, so they equal the
  /// sequential dot product bit for bit. Otherwise (bit slicing, or an
  /// uncertified array) each pulse's current is the sequential dot product
  /// of mvm_pulse, with each ±1 derived from the code. Read noise and the
  /// ADC apply after the tile sum either way, as in mvm_pulse.
  void mvm_pulse_train(const PulseCodes& x, const double* read_noise,
                       const PulseSink& sink) const;

  /// The exactness certificate, checked once at construction over every
  /// cell value the pulse sweep reads (eff_weight_ under differential
  /// mapping; raw_g_ and ref_g_ under offset mapping): all finite, all
  /// multiples of one 2^q, and 2 · tile_cols · max|w| < 2^(q+53). The array
  /// is immutable after construction, so the certificate never goes stale.
  bool exact_tile_sums() const { return !cells_t_.empty(); }

  /// The effective (post-programming) weight the array realizes in the
  /// sign domain: (G+ − G−) for differential mapping, (G − G_ref) ·
  /// 2/(g_on − g_off) for offset mapping. Equals sign(W) for ideal devices
  /// under either mapping.
  const Tensor& effective_weight() const { return eff_weight_; }

  /// The digital scale s recovered from the programmed matrix.
  float weight_scale() const { return scale_; }

  WeightMapping mapping() const { return cfg_.mapping; }

 private:
  std::size_t out_ = 0, in_ = 0;
  std::size_t tile_cols_ = 0, num_tiles_ = 0;
  DeviceConfig cfg_;
  float scale_ = 1.0f;
  Tensor eff_weight_;  // [out, in] sign-domain equivalent weight
  // Offset mapping only: raw programmed conductances and the per-tile
  // shared reference cells (one mid-level cell per input line).
  Tensor raw_g_;       // [out, in]
  Tensor ref_g_;       // [in]
  // The cells the pulse sweep reads (eff_weight_, or raw_g_ under offset
  // mapping) transposed to [in, cells_t_stride_] doubles, zero-padded to a
  // whole number of lane blocks, so one column's outputs sit side by side
  // for the level-bucket sums.
  // Empty when the exactness certificate fails.
  std::vector<double> cells_t_;
  std::size_t cells_t_stride_ = 0;

  void certify_exact_tile_sums();
};

}  // namespace gbo::xbar
