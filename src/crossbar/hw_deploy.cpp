#include "crossbar/hw_deploy.hpp"

#include "common/logging.hpp"
#include "quant/binary_weight.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"

#include <stdexcept>

namespace gbo::xbar {

HardwareNetwork::HardwareNetwork(nn::Sequential& net,
                                 const std::vector<quant::Hookable*>& encoded,
                                 HwDeployConfig cfg)
    : net_(net), cfg_(cfg) {
  std::vector<std::size_t> pulses = cfg_.pulses;
  if (pulses.empty()) pulses.assign(encoded.size(), 8);
  if (pulses.size() != encoded.size())
    throw std::invalid_argument("HardwareNetwork: pulses/layers mismatch");

  Rng rng(cfg_.seed);
  call_rng_ = rng.fork(999);
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    auto* conv = dynamic_cast<quant::QuantConv2d*>(encoded[i]);
    auto* lin = dynamic_cast<quant::QuantLinear*>(encoded[i]);
    const nn::Module* module = nullptr;
    Tensor binary;
    if (conv) {
      binary = quant::binarize(conv->weight().value, /*scaled=*/true);
      module = conv;
    } else if (lin) {
      binary = quant::binarize(lin->weight().value, /*scaled=*/true);
      module = lin;
    } else {
      throw std::invalid_argument(
          "HardwareNetwork: encoded layer is neither QuantConv2d nor QuantLinear");
    }
    MvmConfig mcfg;
    mcfg.spec = enc::EncodingSpec{cfg_.scheme, pulses[i]};
    mcfg.sigma = cfg_.sigma;
    mcfg.device = cfg_.device;
    mcfg.tile_cols = cfg_.tile_cols;
    engine_index_[module] = engines_.size();
    engines_.push_back(
        std::make_unique<MvmEngine>(binary, mcfg, rng.fork(1000 + i)));
    conv_of_engine_.push_back(conv);
  }
}

Tensor HardwareNetwork::forward(const Tensor& x) {
  // Legacy mutable entry point: a counter-based fork per call, so repeated
  // calls see fresh noise while the whole sequence replays from cfg.seed.
  nn::EvalContext ctx(call_rng_.fork(call_count_++));
  return forward(x, ctx);
}

Tensor HardwareNetwork::forward(const Tensor& x, nn::EvalContext& ctx) const {
  const nn::Sequential& net = net_;
  if (net.size() == 0) return x;
  Tensor cur;
  const Tensor* in = &x;  // the caller's input is read in place, never copied
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Module& module = net.at(i);
    auto it = engine_index_.find(&module);
    Tensor next;
    if (it == engine_index_.end()) {
      // Digital layer (BN, activation, pooling, full-precision ends):
      // stateless infer, eval-mode semantics regardless of training flag.
      next = module.infer(*in, ctx);
    } else {
      const MvmEngine& engine = *engines_[it->second];
      // A conv layer's oh·ow patch rows per sample are one run of rows,
      // so each stream draws for whole samples (DESIGN.md §6).
      if (const quant::QuantConv2d* conv = conv_of_engine_[it->second]) {
        const std::size_t batch = in->dim(0);
        const ConvGeom& g = conv->geom();
        Tensor cols = ctx.make({batch * g.out_h() * g.out_w(), g.patch_len()});
        im2col_into(*in, g, cols.data());
        Tensor rows = engine.run_pulse_level(cols, ctx.streams(), ctx.arena);
        ctx.recycle(std::move(cols));
        next = ctx.make({batch, conv->out_channels(), g.out_h(), g.out_w()});
        rows_to_nchw_into(rows.data(), batch, conv->out_channels(), g.out_h(),
                          g.out_w(), next.data());
        ctx.recycle(std::move(rows));
      } else {
        next = engine.run_pulse_level(*in, ctx.streams(), ctx.arena);
      }
    }
    if (in != &x) ctx.recycle(std::move(cur));
    cur = std::move(next);
    in = &cur;
  }
  return cur;
}

float HardwareNetwork::evaluate(const data::Dataset& test,
                                std::size_t batch_size) {
  if (test.size() == 0) {
    log_warn("HardwareNetwork::evaluate: empty test dataset, returning 0");
    return 0.0f;
  }
  if (batch_size == 0) {
    log_warn("HardwareNetwork::evaluate: batch_size == 0, returning 0");
    return 0.0f;
  }
  std::size_t correct = 0, seen = 0;
  const std::size_t len = test.sample_numel();
  for (std::size_t start = 0; start < test.size(); start += batch_size) {
    const std::size_t n = std::min(batch_size, test.size() - start);
    std::vector<std::size_t> shape = test.images.shape();
    shape[0] = n;
    Tensor batch(shape);
    std::copy(test.images.data() + start * len,
              test.images.data() + (start + n) * len, batch.data());
    Tensor logits = forward(batch);
    const auto preds = ops::argmax_rows(logits);
    for (std::size_t i = 0; i < n; ++i)
      if (preds[i] == test.labels[start + i]) ++correct;
    seen += n;
  }
  return static_cast<float>(correct) / static_cast<float>(seen);
}

std::size_t HardwareNetwork::total_cells() const {
  std::size_t cells = 0;
  for (const auto& engine : engines_)
    cells += engine->array().rows() * engine->array().cols();
  return cells;
}

}  // namespace gbo::xbar
