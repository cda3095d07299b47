// Hardware deployment: run a trained BWNN end to end on the simulated
// crossbar at pulse granularity.
//
// The training/evaluation pipeline uses the analytic noise hooks (fast,
// distribution-exact for the Eq. 1 model). This module is the "ship it to
// the hardware" path: every crossbar-mapped layer's binarized weight is
// programmed into a tiled CrossbarArray (device non-idealities sampled at
// programming time), and inference streams real thermometer/bit-sliced
// pulse trains through the arrays — one MVM per pulse, ADC and read noise
// included. Digital layers (BN, activations, pooling, the conv1/fc2
// full-precision ends) execute on the host network.
//
// Use cases: validating the analytic pipeline against the physical
// simulation, and extension studies under non-idealities the Eq. 1 model
// does not capture (stuck cells, ADC clipping, drift).
#pragma once

#include "crossbar/mvm_engine.hpp"
#include "data/dataset.hpp"
#include "nn/eval_context.hpp"
#include "nn/sequential.hpp"
#include "quant/quant_layers.hpp"

#include <map>
#include <memory>
#include <vector>

namespace gbo::xbar {

struct HwDeployConfig {
  DeviceConfig device;              // non-idealities (default: ideal devices)
  double sigma = 0.0;               // Eq. 1 per-pulse output noise
  enc::Scheme scheme = enc::Scheme::kThermometer;
  std::vector<std::size_t> pulses;  // per encoded layer; empty = uniform 8
  std::size_t tile_cols = 128;
  std::uint64_t seed = 1;
};

/// A network deployed onto simulated crossbar hardware.
///
/// Holds one programmed MvmEngine per crossbar-mapped layer; `forward`
/// interleaves pulse-level crossbar reads with host execution of the
/// digital layers. The source network is used in eval mode and is not
/// modified.
///
/// After construction the programmed engines are frozen: the const
/// forward(x, ctx) overload reads only shared immutable state (weights,
/// programmed conductances) and draws every stochastic term (read noise,
/// Eq. 1 output noise) from the caller's EvalContext, so one deployed
/// network can serve any number of concurrent workers — this is the
/// backend the serving runtime (serve/backend.hpp) drives. The classic
/// mutable forward(x) is a thin wrapper that forks a per-call context off
/// a member stream (fresh noise each call, replayable from cfg.seed).
class HardwareNetwork {
 public:
  /// `encoded`: the crossbar-mapped layers of `net`, in forward order
  /// (the same list the model builders return).
  HardwareNetwork(nn::Sequential& net,
                  const std::vector<quant::Hookable*>& encoded,
                  HwDeployConfig cfg);

  /// Pulse-level inference. Input layout must match the host network's.
  Tensor forward(const Tensor& x);

  /// Const/shared-safe pulse-level inference: digital layers run the
  /// stateless infer path, crossbar layers the const engine overload; all
  /// randomness comes from ctx.streams() (network order) and scratch
  /// recycles through ctx.arena when attached.
  Tensor forward(const Tensor& x, nn::EvalContext& ctx) const;

  /// Classification accuracy over a dataset. Degenerate inputs (empty
  /// dataset or batch_size == 0) return 0 with a logged warning.
  float evaluate(const data::Dataset& test, std::size_t batch_size = 64);

  /// True when no read-time stochastic term is configured (Eq. 1 sigma and
  /// device read noise both zero): forward results then depend only on the
  /// frozen programmed state, never on the context stream. The serving
  /// runtime uses this to fuse micro-batches into whole-tensor calls.
  bool deterministic() const {
    return cfg_.sigma <= 0.0 && cfg_.device.read_noise_sigma <= 0.0;
  }

  std::size_t num_crossbar_layers() const { return engines_.size(); }

  /// Total crossbar cells programmed (rows x cols summed over layers).
  std::size_t total_cells() const;

 private:
  nn::Sequential& net_;
  HwDeployConfig cfg_;
  // Keyed by the module identity within the Sequential.
  std::map<const nn::Module*, std::size_t> engine_index_;
  std::vector<std::unique_ptr<MvmEngine>> engines_;
  std::vector<const quant::QuantConv2d*> conv_of_engine_;  // null for linear
  Rng call_rng_;                 // root of the mutable API's per-call forks
  std::uint64_t call_count_ = 0;
};

}  // namespace gbo::xbar
